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


LATTICE = {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5, "steps": 2}
# markets whose fields are not JSON numbers, or whose node parent is not whole
BAD_MARKETS = (
    {"lattice": {**LATTICE, "steps": True}},
    {"lattice": {**LATTICE, "u": "2"}},
    {"nodes": [{"parent": -1, "prob": 1.0, "prices": [1.0]},
               {"parent": 0, "prob": 0.5, "prices": [2.0]},
               {"parent": 0.7, "prob": 0.5, "prices": [0.5]}]},
    {"nodes": [{"parent": -1, "prob": 1.0, "prices": [1.0]},
               {"parent": 0, "prob": "0.5", "prices": [2.0]},
               {"parent": 0, "prob": 0.5, "prices": [0.5]}]},
    # missing, mistyped and non-finite entries, each named by the library
    {"lattice": {k: v for k, v in LATTICE.items() if k != "u"}},
    {"lattice": {**LATTICE, "s0": float("inf")}},
    {"nodes": 5},
    {"nodes": [{"parent": 1e300, "prob": 1.0, "prices": [1.0]},
               {"parent": 0, "prob": 0.5, "prices": [2.0]},
               {"parent": 0, "prob": 0.5, "prices": [0.5]}]},
    *({"nodes": [{"parent": -1, "prob": 1.0, "prices": [1.0]},
                 {"parent": 0, "prob": 0.5, "prices": [2.0], **bad},
                 {"parent": 0, "prob": 0.5, "prices": [0.5]}]}
      for bad in ({"prices": ["2.0"]}, {"prices": "2"}, {"prices": None},
                  {"prob": float("nan")}, {"prices": [float("inf")]})),
)


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
    # entries of the wrong JSON type
    with open(f"{CONFIGS}/binomial_sine.json") as f:
        sweep = json.load(f)
    for key, value in (("grid", 5), ("grid", None), ("grid", [None]), ("family", 5),
                       ("x0", [1]), ("x0", None), ("seed", None), ("tol", None),
                       ("claim", {"kind": "call", "strike": None}), ("market", 5),
                       ("x0", float("nan")), ("seed", float("inf")), ("grid", [0.2, float("nan")]),
                       ("family", {"kind": "sine", "a": float("nan")}),
                       # booleans, and fractions of whole-number entries
                       ("seed", 2.5), ("seed", True), ("x0", True),
                       ("claim", {"kind": "call", "asset": 0.9}),
                       # strings, and booleans or strings in the family and the tree
                       ("x0", "0.5"), ("seed", "3"),
                       ("family", {"kind": "sine", "a": True}),
                       ("family", {"kind": "sine", "a": "0.2"}),
                       # a tolerance and explicit claim leaves are JSON numbers too
                       ("tol", True), ("tol", "1e-9"), ("claim", ["1", "2", "3", "4"]),
                       ("claim", [True, False, True, False]),
                       *(("market", market) for market in BAD_MARKETS)):
        cfg = write_config(tmp_path, "typed.json", {**sweep, key: value})
        assert main(["sweep-delta", "--config", cfg, "--out", str(tmp_path)]) == 2, (key, value)
    with open(f"{CONFIGS}/binomial_power.json") as f:
        power = json.load(f)
    for key, value in (("p0", True), ("b", "0.05"), ("nu", "1")):
        cfg = write_config(tmp_path, "typed.json",
                           {**power, "family": {**power["family"], key: value}})
        assert main(["sweep-p", "--config", cfg, "--out", str(tmp_path)]) == 2, (key, value)
    # a grid point above the family's anchor p0 = -7
    cfg = write_config(tmp_path, "above.json", {**power, "grid": [-3.0, -7.0, -15.0]})
    assert main(["sweep-p", "--config", cfg, "--out", str(tmp_path)]) == 2
    with open(f"{CONFIGS}/price_call.json") as f:
        solve = json.load(f)
    for key, value in (("utility", [1]), ("utility", {"kind": "exponential", "alpha": None}),
                       ("x0", None), ("x0", [1]), ("market", 5),
                       # a claim on an asset the one-asset market does not have
                       ("claim", {"kind": "call", "asset": 3}),
                       ("claim", {"kind": "call", "asset": True}),
                       ("claim", {"kind": "call", "asset": -1}),
                       # non-finite numbers
                       ("x0", float("nan")), ("x0", float("inf")),
                       ("utility", {"kind": "exponential", "alpha": float("nan")}),
                       ("utility", {"kind": "sine", "delta": float("nan")}),
                       ("utility", {"kind": "power", "p": float("nan")}),
                       ("market", {"lattice": {"s0": 1.0, "u": 2.0, "d": 0.5, "q": 0.5,
                                               "steps": 2.5}}),
                       # booleans, and fractions of whole-number entries
                       ("x0", True), ("utility", {"kind": "exponential", "alpha": True}),
                       ("claim", {"kind": "call", "asset": 0.9}),
                       # strings, and booleans or strings in the tree
                       ("x0", "0.5"), ("utility", {"kind": "exponential", "alpha": "1.0"}),
                       ("claim", ["1", "2", "3", "4"]), ("claim", [True, False, True, False]),
                       *(("market", market) for market in BAD_MARKETS)):
        cfg = write_config(tmp_path, "typed.json", {**solve, key: value})
        for command in ("solve", "price"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2, \
                (command, key, value)
    for tol in (True, "1e-9"):
        cfg = write_config(tmp_path, "typed.json", {**solve, "tol": tol})
        assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == 2, tol
    # a two-asset market has an asset 1, but neither 0.9 nor true names it
    two_asset = {"nodes": [{"parent": -1, "prob": 1.0, "prices": [1.0, 1.0]},
                           {"parent": 0, "prob": 0.5, "prices": [1.2, 0.9]},
                           {"parent": 0, "prob": 0.5, "prices": [0.8, 1.1]}]}
    for asset in (0.9, True):
        cfg = write_config(tmp_path, "typed.json", {**solve, "market": two_asset,
                                                    "claim": {"kind": "call", "asset": asset}})
        for command in ("solve", "price"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2, \
                (command, asset)
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


def test_main_reuses_one_parser(tmp_path, capsys):
    # the parser is built once; an argparse exit leaves it fit for the next call
    assert cli_mod.build_parser() is cli_mod.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--trials", "120", "--tol", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err
    assert main(["audit", "--out", str(tmp_path), "--trials", "120", "--seed", "3"]) == 0
    assert "audit: 120 trials" in capsys.readouterr().out
    doc = read_json(tmp_path, "audit.json")
    assert (doc["trials"], doc["seed"], doc["ok"]) == (120, 3, True)
    assert main(["audit", "--out", str(tmp_path), "--trials", "50"]) == 2
    assert "at least 100 trials" in capsys.readouterr().err
    assert main(["audit", "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path, "audit.json")["seed"] == 42


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
