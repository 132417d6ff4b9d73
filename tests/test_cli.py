import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import path_csv_rows_by_repr

import qcw
from qcw import (
    PathSeries,
    SpreadLaw,
    ValidationError,
    cli,
    imbalance_summary,
    q_of_i,
    sample_spread,
    simulate_path,
)
from qcw.cli import (
    PATH_CSV_HEADER,
    _atomic_write,
    _check_keys,
    _model_params,
    _sim_config,
    main,
    read_path_csv,
    read_pdf_csv,
    read_qi_csv,
)
from qcw.market_sim import _child_seed

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"

BALANCED_MODEL = {
    "sigma": 0.001,
    "xi0": 0.0,
    "xi1": 0.05,
    "kappa0": 0.0,
    "kappa1": 0.05,
    "tau": 0.0008,
    "s0": 100.0,
    "dt": 1.0,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def simulate_config(tmp_path, **overrides):
    cfg = dict(
        BALANCED_MODEL,
        n_steps=500,
        initial_price=100.0,
        mode="balanced",
        post_trade="phase-scramble",
        initial_imbalance=0.0,
        seed=12,
    )
    cfg.update(overrides)
    return write_config(tmp_path, "simulate.json", cfg)


def quotes_file(tmp_path, n=2000, seed=3):
    draws = sample_spread(SpreadLaw(xi1=0.10, kappa1=0.05), np.random.default_rng(seed), n)
    lines = ["timestamp,bid,ask"]
    lines += [f"t{k},100.0,{100.0 + float(d)!r}" for k, d in enumerate(draws)]
    path = tmp_path / "quotes.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_path_and_summary(tmp_path):
    cfg = simulate_config(tmp_path, n_steps=1000)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    data = read_path_csv(out / "path.csv")
    assert data["t"].size == 1000
    assert np.all(data["s_bid"] <= data["s_trade"])
    assert np.all(data["s_trade"] <= data["s_ask"])
    assert set(np.unique(data["side"])) <= {"ask", "bid"}

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["rows"] == 1000
    assert summary["seed"] == 12
    assert summary["version"]
    assert len(summary["params_sha256"]) == 64
    assert summary["spread_residual_max"] < 1e-10


def test_simulate_zero_spread_degenerate_config(tmp_path):
    cfg = simulate_config(tmp_path, xi1=0.0, kappa1=0.0, n_steps=50)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    data = read_path_csv(out / "path.csv")
    assert np.array_equal(data["s_bid"], data["s_trade"])
    assert np.array_equal(data["s_ask"], data["s_trade"])


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = simulate_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "path.csv").read_bytes() == (out_b / "path.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_simulate_path_csv_matches_row_by_row_formatter(tmp_path):
    # the shipped 5000-step path spans two formatting chunks
    cfg = json.loads((CONFIGS_DIR / "simulate_balanced.json").read_text(encoding="utf-8"))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(CONFIGS_DIR / "simulate_balanced.json"),
                 "--out", str(out)]) == 0
    series = simulate_path(_sim_config(cfg, cfg["seed"]), _model_params(cfg))
    text = (out / "path.csv").read_bytes().decode("utf-8")
    meta = text.split("\n", 1)[0]
    assert meta.startswith(f"# qcw={qcw.__version__} seed={cfg['seed']} ")
    expected = "\n".join([meta, PATH_CSV_HEADER, *path_csv_rows_by_repr(series)]) + "\n"
    assert text == expected


# -0.0, the smallest subnormal, the normal/subnormal boundary and the points
# where repr switches between fixed and exponent notation (1e16 and 1e-4)
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,
    1e-4, 9.999999999999999e-05, 0.00010000000000000002, -1e-4,
    math.inf, -math.inf, math.nan,
]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            *[st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())] * 3, st.booleans()
        ),
        min_size=1,
        max_size=40,
    )
)
def test_column_formatting_matches_repr_per_float(rows):
    bid, ask, imb, at_ask = (np.array(column) for column in zip(*rows))
    series = PathSeries(
        t=np.arange(len(rows), dtype=np.int64),
        s_bid=bid,
        s_ask=ask,
        s_trade=np.where(at_ask, ask, bid),
        at_ask=at_ask,
        imbalance=imb,
        xi=np.zeros(len(rows)),
        kappa=np.zeros(len(rows)),
        initial_price=1.0,
        seed=0,
        spread_residual_max=0.0,
    )
    with mock.patch.object(cli, "_FORMAT_ROWS", 7):  # several chunks per example
        assert list(cli._path_rows(series)) == path_csv_rows_by_repr(series)
        assert list(cli._float_rows(bid, ask, imb)) == [
            ",".join(map(repr, row[:3])) for row in zip(bid.tolist(), ask.tolist(), imb.tolist())
        ]


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = simulate_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "99"]) == 0
    assert (out_a / "path.csv").read_bytes() != (out_b / "path.csv").read_bytes()
    summary = json.loads((out_b / "summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == 99


def test_simulate_positivity_abort_exit_code(tmp_path, capsys):
    cfg = simulate_config(tmp_path, xi1=2.0, initial_price=0.5, n_steps=5000, sigma=0.0)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert "step" in capsys.readouterr().err


def test_simulate_validation_errors(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2

    bad = write_config(tmp_path, "bad.json", {"n_steps": "many"})
    assert main(["simulate", "--config", str(bad)]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{\n  \"n_steps\": 5,\n", encoding="utf-8")
    assert main(["simulate", "--config", str(not_json)]) == 2
    assert "line" in capsys.readouterr().err

    cfg = simulate_config(tmp_path, sigma=-1.0)
    assert main(["simulate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "content", [b'{"seed": "\xff"}', b"[" * 100_000], ids=["non_utf8", "nested_too_deep"]
)
def test_unreadable_config_is_validation_error(tmp_path, capsys, content):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcw: validation error: ") and "bad.json" in err
    assert "Traceback" not in err


def test_negative_seed_is_validation_error(tmp_path, capsys):
    cfg = simulate_config(tmp_path)
    for command in ("simulate", "imbalance"):
        assert main([command, "--config", str(cfg), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
    cfg = imbalance_config(tmp_path, seed=-1)
    assert main(["imbalance", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_unknown_command_exit_code():
    assert main(["frobnicate", "--config", "x.json"]) == 2


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    cfg = simulate_config(tmp_path, post_trad="collapse")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "'post_trad'" in capsys.readouterr().err
    assert not (tmp_path / "x" / "path.csv").exists()


def test_shipped_config_keys_are_accepted():
    commands = {"simulate": "simulate", "fit": "fit", "imbalance": "imbalance"}
    paths = sorted(CONFIGS_DIR.glob("*.json"))
    assert paths
    for path in paths:
        cfg = json.loads(path.read_text(encoding="utf-8"))
        _check_keys(cfg, commands[path.stem.split("_")[0]])
    _check_keys({"bins": 50, "format": "ohlc", "input": "x.csv", "ohlc_mode": "relative",
                 "out_dir": "o", "seed": 1}, "fit")


def test_atomic_write_cleans_up_when_replace_fails(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        _atomic_write(target, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert target.read_text(encoding="utf-8") == "old\n"


def test_atomic_write_uses_umask_mode_and_leaves_no_temp(tmp_path):
    reference = tmp_path / "reference.txt"
    reference.write_text("x", encoding="utf-8")
    target = tmp_path / "out.csv"
    _atomic_write(target, "a,b\n1,2\n")
    _atomic_write(target, "a,b\n3,4\n")
    assert target.read_text(encoding="utf-8") == "a,b\n3,4\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "reference.txt"]
    assert target.stat().st_mode == reference.stat().st_mode


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def fit_config(tmp_path, **overrides):
    return write_config(
        tmp_path, "fit.json", dict({"input": "quotes.csv", "format": "quotes"}, **overrides)
    )


def test_fit_round_trip_recovers_parameters(tmp_path):
    quotes_file(tmp_path, n=20_000)
    cfg = write_config(
        tmp_path, "fit.json", {"input": "quotes.csv", "format": "quotes", "bins": 40}
    )
    out = tmp_path / "fit-out"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0

    fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    assert abs(fit["xi1_hat"] - 0.10) / 0.10 < 0.05
    assert abs(fit["kappa1_hat"] - 0.05) / 0.05 < 0.05
    assert fit["converged"] is True
    assert fit["ingestion"]["kept"] == 20_000
    assert fit["loglik_per_sample"] == fit["loglik"] / fit["n"]
    assert fit["nfev"] >= fit["iterations"] > 0

    table = read_pdf_csv(out / "pdf.csv")
    assert table["delta"].size == 40
    assert np.all(table["model_density"] >= 0.0)
    # the two densities describe the same histogrammed data
    mask = table["empirical_density"] > 0
    assert np.corrcoef(table["empirical_density"][mask], table["model_density"][mask])[0, 1] > 0.9


def test_shipped_fit_config_runs_on_quotes_beside_it(tmp_path, monkeypatch):
    # the README quick start: synthetic quotes written beside the shipped config
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    cfg = config_dir / "fit_quotes.json"
    cfg.write_bytes((CONFIGS_DIR / "fit_quotes.json").read_bytes())
    quotes_file(config_dir, n=5000, seed=1)
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "--config", "configs/fit_quotes.json"]) == 0
    out = tmp_path / json.loads(cfg.read_text(encoding="utf-8"))["out_dir"]
    fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    assert fit["converged"] is True and fit["ingestion"]["kept"] == 5000


def test_fit_at_1e200_scale(tmp_path):
    draws = sample_spread(SpreadLaw(xi1=0.10, kappa1=0.05), np.random.default_rng(3), 2000)
    lines = ["timestamp,bid,ask"]
    lines += [f"t{k},{1e202!r},{1e202 + 1e200 * float(d)!r}" for k, d in enumerate(draws)]
    (tmp_path / "quotes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["fit", "--config", str(fit_config(tmp_path)), "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    assert abs(fit["xi1_hat"] / 1e200 - 0.10) / 0.10 < 0.1
    assert abs(fit["kappa1_hat"] / 1e200 - 0.05) / 0.05 < 0.1
    table = read_pdf_csv(out / "pdf.csv")
    for column in table.values():
        assert np.all(np.isfinite(column))
    assert np.all(table["model_density"] > 0.0)


def test_fit_malformed_row_names_line(tmp_path, capsys):
    path = tmp_path / "quotes.csv"
    path.write_text("timestamp,bid,ask\nt0,27.83,27.87\nt1,bogus,27.90\n", encoding="utf-8")
    cfg = write_config(tmp_path, "fit.json", {"input": "quotes.csv", "format": "quotes"})
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_fit_too_few_samples_is_validation_error(tmp_path):
    quotes_file(tmp_path, n=10)
    cfg = write_config(tmp_path, "fit.json", {"input": "quotes.csv", "format": "quotes"})
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_fit_on_header_only_file_reports_no_samples(tmp_path, capsys):
    (tmp_path / "quotes.csv").write_text("timestamp,bid,ask\n", encoding="utf-8")
    assert main(["fit", "--config", str(fit_config(tmp_path)), "--out", str(tmp_path / "o")]) == 2
    assert "need at least 50 spread samples, got 0" in capsys.readouterr().err


def test_fit_ohlc_relative_records_denominator(tmp_path):
    rng = np.random.default_rng(5)
    draws = sample_spread(SpreadLaw(xi1=0.02, kappa1=0.01), rng, 500)
    lines = ["timestamp,open,high,low,close"]
    for k, d in enumerate(draws):
        low = 100.0
        high = low + d * 100.0
        lines.append(f"d{k},{low!r},{float(high)!r},{low!r},{100.0!r}")
    (tmp_path / "bars.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(
        tmp_path,
        "fit.json",
        {"input": "bars.csv", "format": "ohlc", "ohlc_mode": "relative"},
    )
    out = tmp_path / "o"
    assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    assert fit["metadata"]["denominator"] == "close"
    assert fit["metadata"]["ohlc_mode"] == "relative"


def test_fit_rejects_unknown_config_key(tmp_path, capsys):
    quotes_file(tmp_path, n=100)
    cfg = write_config(tmp_path, "fit.json", {"input": "quotes.csv", "format": "quotes",
                                              "bin": 20})
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'bin'" in capsys.readouterr().err


def test_fit_relative_overflow_is_validation_error(tmp_path, capsys):
    good = [f"d{k},100.0,{101.0 + k / 100.0!r},100.0,100.0" for k in range(60)]
    # (high - low)/close overflows to inf, or underflows to 0
    for bad in ("huge,1e300,1e300,1e299,1e-300", "tiny,2e-300,2e-300,1e-300,1e300"):
        lines = ["timestamp,open,high,low,close", *good, bad]
        (tmp_path / "bars.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, "fit.json",
                           {"input": "bars.csv", "format": "ohlc", "ohlc_mode": "relative"})
        out = tmp_path / "o"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 2
        assert "spread samples must all be finite and > 0" in capsys.readouterr().err
        assert not (out / "fit.json").exists()


def test_fit_rerun_is_byte_identical(tmp_path):
    quotes_file(tmp_path, n=500)
    cfg = write_config(tmp_path, "fit.json", {"input": "quotes.csv", "format": "quotes"})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["fit", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["fit", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "fit.json").read_bytes() == (out_b / "fit.json").read_bytes()
    assert (out_a / "pdf.csv").read_bytes() == (out_b / "pdf.csv").read_bytes()


# ---------------------------------------------------------------------------
# imbalance
# ---------------------------------------------------------------------------

def imbalance_config(tmp_path, **overrides):
    cfg = dict(
        BALANCED_MODEL,
        n_paths=20,
        n_steps=400,
        bins=21,
        initial_price=100.0,
        mode="balanced",
        initial_imbalance=0.0,
        seed=8,
    )
    cfg.update(overrides)
    return write_config(tmp_path, "imbalance.json", cfg)


def test_imbalance_balanced_outputs(tmp_path):
    cfg = imbalance_config(tmp_path)
    out = tmp_path / "qi"
    assert main(["imbalance", "--config", str(cfg), "--out", str(out)]) == 0

    hist = read_qi_csv(out / "qi.csv")
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-9)
    assert hist.edges[0] == -1.0 and hist.edges[-1] == 1.0

    moments = json.loads((out / "moments.json").read_text(encoding="utf-8"))
    assert moments["n"] == 20 * 400
    assert abs(moments["skewness"]) < 0.25  # small ensemble, loose bound


def test_imbalance_crash_negative_mass(tmp_path):
    cfg = imbalance_config(
        tmp_path,
        mode="imbalance-coupled",
        c_i=0.05,
        xi1=0.005,
        kappa1=0.002,
        sigma=0.0005,
        tau=1.0,
        initial_imbalance=-0.9,
        n_paths=10,
        n_steps=300,
    )
    out = tmp_path / "qi"
    assert main(["imbalance", "--config", str(cfg), "--out", str(out)]) == 0
    moments = json.loads((out / "moments.json").read_text(encoding="utf-8"))
    assert moments["negative_fraction"] > 0.5
    assert moments["mean"] < 0.0


def test_imbalance_rejects_empty_ensemble(tmp_path):
    cfg = imbalance_config(tmp_path, n_paths=0)
    assert main(["imbalance", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_imbalance_rerun_is_byte_identical(tmp_path):
    cfg = imbalance_config(tmp_path, n_paths=5, n_steps=100)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["imbalance", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["imbalance", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "qi.csv").read_bytes() == (out_b / "qi.csv").read_bytes()
    assert (out_a / "moments.json").read_bytes() == (out_b / "moments.json").read_bytes()


def test_imbalance_rejects_unknown_config_key(tmp_path, capsys):
    cfg = imbalance_config(tmp_path, n_path=5)
    assert main(["imbalance", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "'n_path'" in capsys.readouterr().err


def test_imbalance_positivity_abort_names_path(tmp_path, capsys):
    cfg = imbalance_config(tmp_path, sigma=0.5)
    assert main(["imbalance", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert re.search(r"<= 0 at step \d+ of path \d+$", capsys.readouterr().err.strip())


def test_imbalance_level_overflow_names_path(tmp_path, capsys):
    cfg = json.loads((CONFIGS_DIR / "imbalance_balanced.json").read_text(encoding="utf-8"))
    path = write_config(tmp_path, "imbalance.json", dict(cfg, initial_price=1e308, sigma=1.0))
    assert main(["imbalance", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.strip()
    assert re.search(r"levels are not finite at step \d+ of path \d+$", err)


@pytest.mark.parametrize("name", ["imbalance_balanced.json", "imbalance_crash.json"])
def test_imbalance_outputs_equal_per_path_runs(tmp_path, name):
    cfg = json.loads((CONFIGS_DIR / name).read_text(encoding="utf-8"))
    out = tmp_path / "qi"
    assert main(["imbalance", "--config", str(CONFIGS_DIR / name), "--out", str(out)]) == 0

    sim, params = cli._sim_config(cfg, cfg["seed"]), cli._model_params(cfg)
    root = np.random.SeedSequence(cfg["seed"])
    paths = [
        simulate_path(replace(sim, seed=_child_seed(root, k)), params)
        for k in range(cfg["n_paths"])
    ]
    hist, ref = read_qi_csv(out / "qi.csv"), q_of_i(paths, bins=cfg["bins"])
    assert hist.edges.tobytes() == ref.edges.tobytes()
    assert hist.masses.tobytes() == ref.masses.tobytes()
    moments = json.loads((out / "moments.json").read_text(encoding="utf-8"))
    summary = imbalance_summary(paths)
    assert {key: moments[key] for key in summary} == summary


def test_read_qi_csv_rejects_empty_table(tmp_path):
    path = tmp_path / "qi.csv"
    path.write_text("# qcw=0.1.0\nbin_left,bin_right,mass\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="no rows"):
        read_qi_csv(path)


# ---------------------------------------------------------------------------
# numeric edges and size limits
# ---------------------------------------------------------------------------

@pytest.fixture
def no_work(monkeypatch):
    """Make any simulation or fit input read fail loudly: the size checks
    must reject a config before anything is allocated or started."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started despite an over-limit config")

    for name in ("simulate_path", "simulate_ensemble", "_ingest_fit_input"):
        monkeypatch.setattr(cli, name, refuse)


def test_simulate_level_overflow_is_validation_error(tmp_path, capsys):
    cfg = simulate_config(tmp_path, initial_price=1e300, sigma=1e10)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "not finite" in capsys.readouterr().err


def test_simulate_overflowing_phase_config_is_validation_error(tmp_path, capsys):
    # the shipped config's seed at a price of 1e308: the mid price overflows,
    # and with it the propagation phase s_mid*dt/(tau*s0); it used to end in
    # a "math domain error" traceback
    cfg = simulate_config(
        tmp_path, initial_price=1e308, sigma=1.0, tau=0.0008, s0=100.0, seed=20190925
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "not finite" in capsys.readouterr().err


def test_huge_integer_parameter_is_validation_error(tmp_path, capsys):
    cfg = simulate_config(tmp_path, sigma=10**400)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "'sigma'" in capsys.readouterr().err


def test_size_limits_reject_before_allocating(tmp_path, capsys, no_work):
    cases = [
        ("simulate", simulate_config, {"n_steps": 100_000_000_000_000}, "'n_steps'"),
        ("simulate", simulate_config, {"n_steps": cli.MAX_STEPS + 1}, "'n_steps'"),
        ("imbalance", imbalance_config, {"n_paths": 10**4, "n_steps": 10**4 + 1}, "'n_paths'"),
        ("imbalance", imbalance_config, {"bins": cli.MAX_BINS + 1}, "'bins'"),
        ("fit", fit_config, {"bins": 1_000_000_000_000}, "'bins'"),
    ]
    assert 10**4 * (10**4 + 1) > cli.MAX_ENSEMBLE_STEPS
    for command, make_config, overrides, key in cases:
        cfg = make_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert key in capsys.readouterr().err


def test_size_limits_admit_the_limit_itself(tmp_path, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, "simulate_ensemble", reached)
    cfg = imbalance_config(tmp_path, n_paths=10**4, n_steps=10**4, bins=cli.MAX_BINS)
    with pytest.raises(Reached):
        main(["imbalance", "--config", str(cfg), "--out", str(tmp_path / "x")])


@pytest.mark.parametrize("init", [[math.inf, 0.1], [True, 0.1], [0.1, 10**400]])
def test_fit_init_must_be_finite_positive_numbers(tmp_path, capsys, no_work, init):
    cfg = fit_config(tmp_path, init=init)
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'init'" in capsys.readouterr().err
