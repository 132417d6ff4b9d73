import decimal
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import path_csv_rows_by_repr, simulate_path_by_steps

import qcw
from qcw import (
    PathSeries,
    PricePositivityError,
    SpreadLaw,
    ValidationError,
    cli,
    float_text,
    imbalance_summary,
    market_sim,
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
    columns = (bid, ask, series.s_trade, at_ask, imb, series.xi, series.kappa, bid)
    blocks = [  # several chunks per example
        (k0, market_sim._Block(*(c[k0 : k0 + 7] for c in columns)))
        for k0 in range(0, len(rows), 7)
    ]
    lines = lambda rows: "".join(f"{row}\n" for row in rows)  # noqa: E731
    assert "".join(cli._path_rows(blocks)) == lines(path_csv_rows_by_repr(series))
    with mock.patch.object(cli, "_FORMAT_ROWS", 7):  # several chunks per example
        assert "".join(cli._float_rows(bid, ask, imb)) == lines(
            ",".join(map(repr, row)) for row in zip(bid.tolist(), ask.tolist(), imb.tolist())
        )


def fast_texts(values):
    """The numpy formatter's text of each value, and where it is its own."""
    ok, fields = float_text._float_fields(np.asarray(values, dtype=float))
    rows = np.vstack([fields, np.full((1, fields.shape[1]), ord("\n"), dtype=np.uint8)])
    return ok, rows.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def neighbours(values, steps=1):
    """``values`` and their ``steps`` nearest doubles on either side."""
    out = [np.asarray(values, dtype=float)]
    for direction in (-np.inf, np.inf):
        x = out[0]
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def test_numpy_formatter_matches_repr():
    rng = np.random.default_rng(2026)
    n = 200_000
    spread = np.ldexp(rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n),
                      rng.integers(-20, 61, n))
    short = np.array([f"{k}e{e}" for k, e in zip(rng.integers(1, 10**5, 3000).tolist(),
                                                   rng.integers(-9, 16, 3000).tolist())])
    powers = np.ldexp(1.0, np.arange(-20, 61))
    values = np.concatenate([
        spread,
        neighbours(short.astype(float)),
        neighbours(np.concatenate([powers, -powers])),
        neighbours([1e-4, 1e16, -1e-4, -1e16], steps=40),
        EDGE_FLOATS,
    ])
    ok, texts = fast_texts(values)
    wrong = [(v, t) for v, fast, t in zip(values.tolist(), ok, texts) if fast and t != repr(v)]
    assert wrong == []
    in_fixed = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)
    assert not ok[~in_fixed].any()
    # Only powers of two, exact ties and near ties go to repr: above 2^40, a
    # double has few enough fractional bits that its 10^s multiple can tie.
    assert ok[in_fixed].mean() > 0.98
    assert ok[in_fixed & (np.abs(values) < 2.0**40)].mean() > 0.999


def test_numpy_formatter_takes_benchmark_like_values():
    # Prices near 100 and imbalances in [-1, 1], as a simulated path holds
    # them: a formatter that sends them all to repr fails here.
    cfg = json.loads((CONFIGS_DIR / "simulate_balanced.json").read_text(encoding="utf-8"))
    series = simulate_path(_sim_config(cfg, cfg["seed"]), _model_params(cfg))
    rng = np.random.default_rng(7)
    values = np.concatenate([series.s_bid, series.s_ask, series.imbalance,
                             100.0 + rng.normal(0.0, 1.0, 50_000), rng.uniform(-1, 1, 50_000)])
    ok, texts = fast_texts(values)
    assert ok.mean() >= 0.999
    assert [t for fast, t in zip(ok, texts) if fast] == [repr(v) for v in values[ok].tolist()]


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


def shipped_config(tmp_path, name, **overrides):
    cfg = json.loads((CONFIGS_DIR / name).read_text(encoding="utf-8"))
    if name.startswith("imbalance"):  # as a `simulate` config
        del cfg["n_paths"], cfg["bins"]
    return write_config(tmp_path, f"shipped-{name}", dict(cfg, **overrides))


def run_simulate(config, out, capsys):
    """The exit code and stderr of one `qcw simulate`, and the files it left in ``out``."""
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    return code, capsys.readouterr().err, files


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("simulate_balanced.json", {}),
        ("imbalance_crash.json", {"post_trade": "collapse", "n_steps": 3000}),
    ],
    ids=["balanced", "coupled_collapse"],
)
def test_simulate_outputs_do_not_depend_on_chunking(tmp_path, monkeypatch, capsys, name, overrides):
    config = shipped_config(tmp_path, name, **overrides)
    ref = run_simulate(config, tmp_path / "ref", capsys)
    assert ref[0] == 0 and sorted(ref[2]) == ["path.csv", "summary.json"]
    for chunk_steps in (1, 7):
        with monkeypatch.context() as patch:
            patch.setattr(market_sim, "_CHUNK_STEPS", chunk_steps)
            assert run_simulate(config, tmp_path / f"c{chunk_steps}", capsys) == ref

    # the summary folded over the streamed blocks is bitwise the collected path's
    cfg = json.loads(config.read_text(encoding="utf-8"))
    series = simulate_path(_sim_config(cfg, cfg["seed"]), _model_params(cfg))
    summary = json.loads(ref[2]["summary.json"])
    assert summary["rows"] == len(series)
    folded = [summary[key] for key in (
        "final_price", "net_log_return", "bid_fraction", "spread_residual_max"
    )]
    collected = [float(series.s_trade[-1]), series.net_log_return(), series.bid_fraction(),
                 series.spread_residual_max]
    assert list(map(float.hex, folded)) == list(map(float.hex, collected))


def strict_json(text):
    """``json.loads`` that rejects NaN and the infinities, which are not JSON."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_simulate_summary_is_strict_json_past_the_float_quotient(tmp_path, capsys):
    # final_price / initial_price overflows at a subnormal initial price
    config = shipped_config(tmp_path, "simulate_balanced.json", initial_price=5e-324, n_steps=1,
                            seed=1)
    code, _, files = run_simulate(config, tmp_path / "out", capsys)
    assert code == 0
    summary = strict_json(files["summary.json"])
    cfg = json.loads(config.read_text(encoding="utf-8"))
    series = simulate_path(_sim_config(cfg, cfg["seed"]), _model_params(cfg))
    assert summary["final_price"] / 5e-324 == math.inf
    assert math.isfinite(summary["net_log_return"])
    assert summary["net_log_return"] == series.net_log_return()


@pytest.mark.parametrize("final, initial", [
    (0.013893325798238838, 5e-324),  # the quotient overflows
    (5e-324, 1e300),  # it underflows to 0
    (1e-300, 1e10),  # it is subnormal
])
def test_log_return_past_the_normal_quotients_matches_exact_logs(final, initial):
    # a normal quotient keeps math.log(final / initial), which the golden outputs hold
    with decimal.localcontext() as context:
        context.prec = 40
        exact = decimal.Decimal(final).ln() - decimal.Decimal(initial).ln()
    assert market_sim._log_return(final, initial) == pytest.approx(float(exact), rel=1e-15, abs=0)


def test_simulate_abort_in_a_later_chunk_leaves_no_table(tmp_path, monkeypatch, capsys):
    # the first trade price <= 0 is at step 8128: in the second 4096-step
    # chunk, after path.csv has taken the first, and with 22 chunks after it
    config = shipped_config(tmp_path, "simulate_balanced.json", sigma=0.05, n_steps=100_000)
    message = "qcw: numeric abort: trade price -0.0254183 <= 0 at step 8128\n"
    for chunk_steps in (market_sim._CHUNK_STEPS, 1, 7):
        with monkeypatch.context() as patch:
            patch.setattr(market_sim, "_CHUNK_STEPS", chunk_steps)
            assert run_simulate(config, tmp_path / "x", capsys) == (3, message, {}), chunk_steps


# Prints the exit code of `qcw.cli.main` on its arguments and the peak RSS of
# its own process image, in bytes. RUSAGE_CHILDREN in the test process would
# keep the peak of every earlier child, and on Linux a child's own ru_maxrss
# starts from the RSS of the process it was forked from (about 100 MB under
# pytest), so where /proc exists the peak is VmHWM, which is per image.
PEAK_RSS_PROBE = """
import os, re, resource, sys
from qcw import cli
code = cli.main(sys.argv[1:])
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        peak = 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1])
else:  # bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, peak)
"""


def test_simulate_peak_memory_does_not_grow_with_steps(tmp_path):
    # Measured on a 2-vCPU VM (Python 3.11, numpy 2.4): a peak of 37.5 MiB at
    # 1e3 steps and 41.9 MiB at 1e5 (43.2 MiB at 1e6), for one chunk of
    # working memory. Keeping the whole path, as `qcw simulate` once did,
    # takes about 390 B a step: 74.7 MiB at 1e5, 37 MiB over the 1e3 run.
    env = dict(os.environ, PYTHONPATH=str(Path(qcw.__file__).resolve().parents[1]))

    def peak_bytes(n_steps):
        config = shipped_config(tmp_path, "simulate_balanced.json", n_steps=n_steps)
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / str(n_steps))]
        done = subprocess.run([sys.executable, "-c", PEAK_RSS_PROBE, *argv],
                              env=env, capture_output=True, text=True, check=True)
        code, peak = map(int, done.stdout.split("\n")[-2].split())
        assert code == 0, done.stderr
        return peak

    assert peak_bytes(100_000) - peak_bytes(1_000) < 10 * 2**20


def test_simulate_validation_errors(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2

    capsys.readouterr()
    bad = simulate_config(tmp_path, n_steps="many")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "config key 'n_steps': expected an integer" in capsys.readouterr().err

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


def test_validation_errors_name_their_key_or_file(tmp_path, capsys):
    quotes_file(tmp_path)
    # each config is written just before its run: the makers reuse one file name
    cases = [
        ("simulate", lambda: simulate_config(tmp_path, mode="sideways"), "'mode'"),
        ("simulate", lambda: simulate_config(tmp_path, n_steps=0), "'n_steps'"),
        ("simulate", lambda: write_config(tmp_path, "array.json", [1, 2]), "array.json"),
        ("imbalance", lambda: imbalance_config(tmp_path, bins=0), "'bins'"),
        ("fit", lambda: fit_config(tmp_path, bins=0), "'bins'"),
        ("fit", lambda: fit_config(tmp_path, input=5), "'input'"),
        ("fit", lambda: fit_config(tmp_path, input="absent.csv"), "absent.csv"),
    ]
    for command, make_config, named in cases:
        cfg = make_config()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qcw: validation error: ") and named in err, (cfg, err)


@pytest.mark.parametrize(
    "key, value",
    [("out_dir", 5), ("out_dir", None), ("out_dir", ["x"]), ("out_dir", "o\0"), ("--out", "o\0")],
    ids=["int", "null", "list", "nul_byte", "flag_nul_byte"],
)
def test_bad_output_dir_is_validation_error(tmp_path, capsys, key, value):
    if key == "--out":
        cfg, argv = simulate_config(tmp_path, n_steps=10), ["--out", value]
    else:
        cfg, argv = simulate_config(tmp_path, n_steps=10, out_dir=value), []
    assert main(["simulate", "--config", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcw: validation error: config key 'out_dir': ")
    assert "Traceback" not in err


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_output_dir_through_a_file_is_io_error(tmp_path, capsys, out):
    cfg = simulate_config(tmp_path, n_steps=10)
    (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("qcw: I/O error: ") and "Traceback" not in err


def test_module_entry_point_exit_status(tmp_path):
    good = simulate_config(tmp_path, n_steps=10)
    unknown = write_config(tmp_path, "unknown.json", dict(json.loads(good.read_text()), n_step=1))
    (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(qcw.__file__).resolve().parents[1]))
    for cfg, out, status in ((good, "run", 0), (unknown, "run", 2), (good, "taken", 4)):
        done = subprocess.run(
            [sys.executable, "-m", "qcw", "simulate", "--config", str(cfg), "--out", out],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == status, done.stderr
        assert "Traceback" not in done.stderr


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


def test_consecutive_calls_parse_independently(tmp_path, monkeypatch):
    """The parser is built once; each call parses its own command and overrides."""
    calls = []
    for name in ("simulate", "fit", "imbalance"):
        monkeypatch.setattr(cli, f"cmd_{name}",
                            lambda cfg, out_dir, seed, *rest, name=name: calls.append(
                                (name, out_dir.name, seed)))
    sim = simulate_config(tmp_path, seed=12, out_dir=str(tmp_path / "sim-default"))
    imb = imbalance_config(tmp_path, seed=8, out_dir=str(tmp_path / "imb-default"))
    fit = fit_config(tmp_path, seed=4, out_dir=str(tmp_path / "fit-default"))
    runs = [
        (["simulate", "--config", str(sim), "--seed", "5", "--out", str(tmp_path / "a")],
         ("simulate", "a", 5)),
        (["imbalance", "--config", str(imb)], ("imbalance", "imb-default", 8)),
        (["fit", "--config", str(fit), "--out", str(tmp_path / "b")], ("fit", "b", 4)),
        (["simulate", "--config", str(sim)], ("simulate", "sim-default", 12)),
        (["imbalance", "--config", str(imb), "--seed", "0"], ("imbalance", "imb-default", 0)),
    ]
    for argv, call in runs:
        assert main(argv) == 0
        assert calls.pop() == call
        assert main(["simulate", "--seed", "3"]) == 2  # a failed parse leaves nothing behind
    assert cli._build_parser() is cli._build_parser()


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    # a misspelled key, and the removed complex_coupling option
    for key, value in (("post_trad", "collapse"), ("complex_coupling", True)):
        cfg = simulate_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"'{key}'" in capsys.readouterr().err
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
    # a misspelled key, and the removed complex_coupling option
    for key, value in (("n_path", 5), ("complex_coupling", True)):
        cfg = imbalance_config(tmp_path, **{key: value})
        assert main(["imbalance", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"'{key}'" in capsys.readouterr().err


def test_imbalance_positivity_abort_names_path(tmp_path, capsys):
    cfg = imbalance_config(tmp_path, sigma=0.5)
    assert main(["imbalance", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert re.search(r"<= 0 at step \d+ of path \d+$", capsys.readouterr().err.strip())


def test_imbalance_level_overflow_names_path(tmp_path, capsys):
    cfg = json.loads((CONFIGS_DIR / "imbalance_balanced.json").read_text(encoding="utf-8"))
    # a price near float range and sigma = 1: a level overflows
    overrides = dict(initial_price=1e308, sigma=1.0, tau=1.0)
    path = write_config(tmp_path, "imbalance.json", dict(cfg, **overrides))
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


def run_imbalance(config, out, capsys):
    code = main(["imbalance", "--config", str(config), "--out", str(out)])
    return code, capsys.readouterr().err


# non-default chunkings: 7-step chunks, and a budget of 3 steps of 100 paths
CHUNKINGS = [("_CHUNK_STEPS", 7), ("_CHUNK_ELEMENTS", 300)]


@pytest.mark.parametrize("name", ["imbalance_balanced.json", "imbalance_crash.json"])
def test_imbalance_outputs_do_not_depend_on_chunk_size(tmp_path, monkeypatch, capsys, name):
    config = CONFIGS_DIR / name
    assert run_imbalance(config, tmp_path / "ref", capsys)[0] == 0
    for attr, value in CHUNKINGS:
        with monkeypatch.context() as patch:
            patch.setattr(market_sim, attr, value)
            assert run_imbalance(config, tmp_path / attr, capsys)[0] == 0
        for output in ("qi.csv", "moments.json"):
            ref = (tmp_path / "ref" / output).read_bytes()
            assert (tmp_path / attr / output).read_bytes() == ref, (attr, output)


# The first abort is at step 11 (positivity) and at step 2 of path 2 (level
# overflow): not the first step of its chunk, with chunks after it.
@pytest.mark.parametrize(
    "overrides, code, message",
    [
        ({"sigma": 0.5, "n_paths": 4, "seed": 3}, 3, r"<= 0 at step 11 of path 0$"),
        (
            {"sigma": 0.05, "tau": 1.0, "initial_price": 1.7e308, "n_paths": 4,
             "n_steps": 40, "seed": 0},
            2,
            r"levels are not finite at step 2 of path 2$",
        ),
    ],
    ids=["positivity", "level_overflow"],
)
def test_imbalance_abort_does_not_depend_on_chunk_size(
    tmp_path, monkeypatch, capsys, overrides, code, message
):
    config = imbalance_config(tmp_path, **overrides)
    ref = run_imbalance(config, tmp_path / "x", capsys)
    assert ref[0] == code and re.search(message, ref[1].strip())
    for attr, value in [("_CHUNK_STEPS", 1), *CHUNKINGS]:
        with monkeypatch.context() as patch:
            patch.setattr(market_sim, attr, value)
            assert run_imbalance(config, tmp_path / "x", capsys) == ref, (attr, value)


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

    for name in ("_path_chunks", "_ingest_fit_input"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(market_sim, "_child_rngs", refuse)  # both kernels' first call


def test_simulate_level_overflow_is_validation_error(tmp_path, capsys):
    cfg = simulate_config(tmp_path, initial_price=1e300, sigma=1e10)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "not finite" in capsys.readouterr().err


def test_simulate_overflowing_phase_config_is_validation_error(tmp_path, capsys):
    # the shipped config's seed at a price of 1e308: the mid, taken from the
    # halves, stays finite, and the global phase s_mid*dt/(tau*s0) that would
    # overflow is not computed; the run aborts where the per-step reference
    # does, at a trade price below zero
    cfg = simulate_config(
        tmp_path, initial_price=1e308, sigma=1.0, tau=0.0008, s0=100.0, seed=20190925
    )
    message = "trade price -4.20553e+307 <= 0 at step 4"
    code, err, files = run_simulate(cfg, tmp_path / "x", capsys)
    assert (code, err, files) == (3, f"qcw: numeric abort: {message}\n", {})
    payload = json.loads(cfg.read_text(encoding="utf-8"))
    with pytest.raises(PricePositivityError, match=f"^{re.escape(message)}$"):
        simulate_path_by_steps(_sim_config(payload, payload["seed"]), _model_params(payload))


@pytest.mark.parametrize("command", ["simulate", "imbalance"])
def test_underflowing_phase_scale_is_validation_error(tmp_path, capsys, command):
    # s0 = 5e-324 is > 0, but tau*s0 = 0.0008 * 5e-324 rounds to 0; it used to
    # end in a ZeroDivisionError traceback with exit 1
    make = simulate_config if command == "simulate" else imbalance_config
    cfg = make(tmp_path, s0=5e-324)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcw: validation error: tau*s0 underflows to 0")
    assert "Traceback" not in err


def test_huge_integer_parameter_is_validation_error(tmp_path, capsys):
    cfg = simulate_config(tmp_path, sigma=10**400)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "'sigma'" in capsys.readouterr().err


def test_size_limits_reject_before_allocating(tmp_path, capsys, no_work):
    cases = [
        ("simulate", simulate_config, {"n_steps": 100_000_000_000_000}, "'n_steps'"),
        ("simulate", simulate_config, {"n_steps": cli.MAX_STEPS + 1}, "'n_steps'"),
        ("imbalance", imbalance_config, {"n_paths": 10**4, "n_steps": 10**4 + 1}, "'n_paths'"),
        ("imbalance", imbalance_config, {"n_paths": cli.MAX_PATHS + 1, "n_steps": 1}, "'n_paths'"),
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

    # the first call of either kernel: past it a run at these sizes would start
    monkeypatch.setattr(market_sim, "_child_rngs", reached)
    sizes = [(10**4, 10**4), (cli.MAX_PATHS, cli.MAX_ENSEMBLE_STEPS // cli.MAX_PATHS)]
    for n_paths, n_steps in sizes:
        cfg = imbalance_config(tmp_path, n_paths=n_paths, n_steps=n_steps, bins=cli.MAX_BINS)
        with pytest.raises(Reached):
            main(["imbalance", "--config", str(cfg), "--out", str(tmp_path / "x")])


@pytest.mark.parametrize("init", [[math.inf, 0.1], [True, 0.1], [0.1, 10**400]])
def test_fit_init_must_be_finite_positive_numbers(tmp_path, capsys, no_work, init):
    cfg = fit_config(tmp_path, init=init)
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'init'" in capsys.readouterr().err


# A fuzz gate for the exit-code contract of `qcw simulate`: 1-2 keys of the
# shipped config (n_steps cut to 100), or a misspelt one, set to values from a
# fixed menu. Run in a temporary working directory, since a string `out_dir` is
# taken relative to it.
FUZZ_KEYS = sorted(json.loads((CONFIGS_DIR / "simulate_balanced.json").read_text())) + ["n_step"]
FUZZ_VALUES = [None, "x", "x\0", [1.0], True, 2**64, 10**400, 1e308, -1e308, 5e-324, -5e-324]


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                min_size=1, max_size=2))
def test_simulate_exit_code_contract_fuzz(tmp_path, monkeypatch, capsys, mutations):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "MAX_STEPS", 1000)
    cfg = json.loads((CONFIGS_DIR / "simulate_balanced.json").read_text(encoding="utf-8"))
    cfg = {**cfg, "n_steps": 100, **dict(mutations)}
    config = write_config(tmp_path, "fuzz.json", cfg)
    code = main(["simulate", "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (mutations, code)
    if code != 0:
        assert err.startswith("qcw:") and "Traceback" not in err, (mutations, err)
    assert not list(tmp_path.rglob("*.tmp")), mutations


# The same gate for `qcw fit`: 1-3 keys of a quote or an OHLC config over a
# 200-row input, or a misspelt key, set to values from the menu above.
FIT_FUZZ_BASES = {
    "quotes": {"input": "quotes.csv", "format": "quotes", "bins": 20, "seed": 4, "out_dir": "out"},
    "ohlc": {"input": "bars.csv", "format": "ohlc", "ohlc_mode": "relative", "bins": 20,
             "seed": 4, "out_dir": "out"},
}
FIT_FUZZ_KEYS = ["bins", "format", "input", "ohlc_mode", "out_dir", "seed", "bin"]


def bars_file(tmp_path, n=200, seed=5):
    draws = sample_spread(SpreadLaw(xi1=0.02, kappa1=0.01), np.random.default_rng(seed), n)
    lines = ["timestamp,open,high,low,close"]
    lines += [f"d{k},100.0,{100.0 + 100.0 * float(d)!r},100.0,100.0" for k, d in enumerate(draws)]
    path = tmp_path / "bars.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def file_bytes(root):
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FIT_FUZZ_BASES)),
       st.lists(st.tuples(st.sampled_from(FIT_FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                min_size=1, max_size=3))
def test_fit_exit_code_contract_fuzz(tmp_path, monkeypatch, capsys, base, mutations):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "MAX_BINS", 1000)
    quotes_file(tmp_path, n=200)
    bars_file(tmp_path)
    config = write_config(tmp_path, "fuzz.json", {**FIT_FUZZ_BASES[base], **dict(mutations)})
    code = main(["fit", "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (mutations, code)
    if code != 0:
        assert err.startswith("qcw:") and "Traceback" not in err, (mutations, err)
    else:
        written = file_bytes(tmp_path)
        assert main(["fit", "--config", str(config)]) == 0, mutations
        assert file_bytes(tmp_path) == written, mutations
    assert not list(tmp_path.rglob("*.tmp")), mutations


# The same gate for `qcw imbalance`: 1-3 keys of either shipped config (10
# paths of 50 steps), or a misspelt one, set to values from the menu above,
# under size limits cut to that run.
IMBALANCE_FUZZ_BASES = {
    name: {**json.loads((CONFIGS_DIR / name).read_text(encoding="utf-8")),
           "n_paths": 10, "n_steps": 50}
    for name in ("imbalance_balanced.json", "imbalance_crash.json")
}
IMBALANCE_FUZZ_KEYS = sorted({key for cfg in IMBALANCE_FUZZ_BASES.values() for key in cfg}) + ["bin"]


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(IMBALANCE_FUZZ_BASES)),
       st.lists(st.tuples(st.sampled_from(IMBALANCE_FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                min_size=1, max_size=3))
def test_imbalance_exit_code_contract_fuzz(tmp_path, monkeypatch, capsys, base, mutations):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "MAX_PATHS", 100)
    monkeypatch.setattr(cli, "MAX_ENSEMBLE_STEPS", 500)
    monkeypatch.setattr(cli, "MAX_BINS", 1000)
    config = write_config(tmp_path, "fuzz.json", {**IMBALANCE_FUZZ_BASES[base], **dict(mutations)})
    code = main(["imbalance", "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (mutations, code)
    if code != 0:
        assert err.startswith("qcw:") and "Traceback" not in err, (mutations, err)
    else:
        written = file_bytes(tmp_path)
        assert main(["imbalance", "--config", str(config)]) == 0, mutations
        assert file_bytes(tmp_path) == written, mutations
    assert not list(tmp_path.rglob("*.tmp")), mutations
