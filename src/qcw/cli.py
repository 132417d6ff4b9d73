"""Config-driven command line: ``qcw simulate | fit | imbalance``.

Each command reads a single JSON config document, validates every parameter
before any computation starts, and writes plot-ready CSV tables plus a JSON
summary. Outputs embed the seed, a hash of the effective config and the tool
version, and every write is atomic (temp file + rename); re-running a command
with the same config and seed reproduces the outputs byte for byte.

Exit codes: 0 success, 2 validation error, 3 numeric abort (price positivity
guard), 4 I/O error. ``QCW_LOG_LEVEL`` controls log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    OHLC_MODE_ABSOLUTE,
    OHLC_MODE_RELATIVE,
    _read_csv,
    fit_spread_params,
    read_ohlc_csv,
    read_quotes_csv,
    spreads_from_ohlc,
    spreads_from_quotes,
)
from .errors import PricePositivityError, ValidationError, is_finite_number
from .market_sim import (
    MODE_BALANCED,
    MODE_IMBALANCE_COUPLED,
    POST_TRADE_COLLAPSE,
    POST_TRADE_SCRAMBLE,
    SimConfig,
    imbalance_summary,
    q_of_i,
    simulate_ensemble,
    simulate_path,
)
from .spread_stats import Histogram, SpreadLaw, spread_pdf
from .stochastic_model import ModelParams
from .wave_dynamics import StateVector

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Size limits, checked before anything is allocated: the histogram bins of
# `fit`/`imbalance`, the steps of one path, and the steps of a whole ensemble.
MAX_BINS = 10**6
MAX_STEPS = 10**8
MAX_ENSEMBLE_STEPS = 10**8

PATH_CSV_HEADER = "t,s_bid,s_ask,s_trade,side,I"
QI_CSV_HEADER = "bin_left,bin_right,mass"
PDF_CSV_HEADER = "delta,empirical_density,model_density"

log = logging.getLogger("qcw")

_REQUIRED = object()

_MODEL_KEYS = {"sigma", "xi0", "xi1", "kappa0", "kappa1", "tau", "s0", "dt", "complex_coupling"}
_SIM_KEYS = _MODEL_KEYS | {
    "n_steps", "initial_price", "mode", "c_i", "post_trade", "initial_imbalance",
}
_RUN_KEYS = {"seed", "out_dir"}
_CONFIG_KEYS = {
    "simulate": _SIM_KEYS | _RUN_KEYS,
    "fit": {"input", "format", "ohlc_mode", "bins"} | _RUN_KEYS,
    "imbalance": _SIM_KEYS | {"n_paths", "bins"} | _RUN_KEYS,
}


# ---------------------------------------------------------------------------
# config access with key-level error messages
# ---------------------------------------------------------------------------

def _get(cfg: dict, key: str, default=_REQUIRED):
    if key in cfg:
        return cfg[key]
    if default is _REQUIRED:
        raise ValidationError(f"config key {key!r} is required")
    return default


def _number(cfg: dict, key: str, default=_REQUIRED) -> float:
    value = _get(cfg, key, default)
    if not is_finite_number(value):
        raise ValidationError(
            f"config key {key!r}: expected a finite number, got {reprlib.repr(value)}"
        )
    return float(value)


def _integer(cfg: dict, key: str, default=_REQUIRED, limit: int | None = None) -> int:
    value = _get(cfg, key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"config key {key!r}: expected an integer, got {value!r}")
    if limit is not None and value > limit:
        raise ValidationError(f"config key {key!r}: {value} exceeds the limit {limit}")
    return value


def _bins(cfg: dict, default: int) -> int:
    bins = _integer(cfg, "bins", default, limit=MAX_BINS)
    if bins < 1:
        raise ValidationError("config key 'bins': must be >= 1")
    return bins


def _choice(cfg: dict, key: str, choices: tuple, default=_REQUIRED) -> str:
    value = _get(cfg, key, default)
    if value not in choices:
        raise ValidationError(
            f"config key {key!r}: expected one of {', '.join(map(repr, choices))}, "
            f"got {value!r}"
        )
    return value


def _flag(cfg: dict, key: str, default: bool) -> bool:
    value = _get(cfg, key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"config key {key!r}: expected true/false, got {value!r}")
    return value


def _model_params(cfg: dict) -> ModelParams:
    return ModelParams(
        sigma=_number(cfg, "sigma"),
        xi0=_number(cfg, "xi0", 0.0),
        xi1=_number(cfg, "xi1"),
        kappa0=_number(cfg, "kappa0", 0.0),
        kappa1=_number(cfg, "kappa1"),
        tau=_number(cfg, "tau"),
        s0=_number(cfg, "s0"),
        dt=_number(cfg, "dt"),
        complex_coupling=_flag(cfg, "complex_coupling", False),
    )


def _sim_config(cfg: dict, seed) -> SimConfig:
    initial_imbalance = _number(cfg, "initial_imbalance", 0.0)
    return SimConfig(
        n_steps=_integer(cfg, "n_steps", limit=MAX_STEPS),
        initial_price=_number(cfg, "initial_price"),
        initial_state=StateVector.from_imbalance(initial_imbalance),
        mode=_choice(cfg, "mode", (MODE_BALANCED, MODE_IMBALANCE_COUPLED), MODE_BALANCED),
        c_i=_number(cfg, "c_i", 0.0),
        post_trade=_choice(
            cfg, "post_trade", (POST_TRADE_SCRAMBLE, POST_TRADE_COLLAPSE), POST_TRADE_SCRAMBLE
        ),
        seed=seed,
    )


def _check_keys(cfg: dict, command: str) -> None:
    unknown = sorted(set(cfg) - _CONFIG_KEYS[command])
    if unknown:
        raise ValidationError(
            f"unknown config key(s) for {command}: {', '.join(map(repr, unknown))}"
        )


def _load_config(path: str) -> dict:
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        with open(cfg_path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: config is not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# deterministic output formatting
# ---------------------------------------------------------------------------

#: Rows formatted at once: one ``repr`` call per column and chunk.
_FORMAT_ROWS = 4096


def _fmt_column(values) -> list[str]:
    """Full-precision, round-trippable text of each float: ``repr(float(v))``.

    One ``repr`` of the whole list, split at its separators, gives the same
    strings as one ``repr`` per float at a fraction of the calls.
    """
    return repr(np.asarray(values, dtype=float).tolist())[1:-1].split(", ")


def _float_rows(*columns):
    """CSV rows of equal-length float columns, formatted chunk by chunk."""
    for k0 in range(0, len(columns[0]), _FORMAT_ROWS):
        span = slice(k0, k0 + _FORMAT_ROWS)
        yield from map(",".join, zip(*(_fmt_column(c[span]) for c in columns)))


def _path_rows(series):
    """``path.csv`` rows of a simulated path, formatted chunk by chunk.

    ``s_trade`` is bitwise the executed level, so its text is that level's.
    """
    for k0 in range(0, len(series), _FORMAT_ROWS):
        span = slice(k0, k0 + _FORMAT_ROWS)
        bids, asks, imbs = (
            _fmt_column(c[span]) for c in (series.s_bid, series.s_ask, series.imbalance)
        )
        for t, bid, ask, at_ask, imb in zip(
            series.t[span].tolist(), bids, asks, series.at_ask[span].tolist(), imbs
        ):
            trade, side = (ask, "ask") if at_ask else (bid, "bid")
            yield f"{t},{bid},{ask},{trade},{side},{imb}"


def _params_hash(effective_cfg: dict) -> str:
    canonical = json.dumps(effective_cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _meta_line(seed, params_hash: str) -> str:
    return f"# qcw={__version__} seed={seed} params_sha256={params_hash}"


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over ``path``.

    The temp file gets a fresh name and is created with O_EXCL, so concurrent
    runs into one directory never share one; mode 0o666 lets the umask set
    the permissions, as for any file the process creates. On failure the
    temp file is removed and ``path`` is left as it was.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, meta: str, header: str, rows) -> None:
    lines = [meta, header]
    lines.extend(rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def read_path_csv(path) -> dict:
    """Round-trip reader for path.csv; returns column arrays."""
    return _read_csv(
        path,
        PATH_CSV_HEADER.split(","),
        {"t": int, "s_bid": float, "s_ask": float, "s_trade": float, "side": str, "I": float},
    )


def read_qi_csv(path) -> Histogram:
    """Round-trip reader for the Q(I) histogram CSV."""
    cols = _read_csv(
        path, QI_CSV_HEADER.split(","), {"bin_left": float, "bin_right": float, "mass": float}
    )
    if cols["mass"].size == 0:
        raise ValidationError(f"{path}: histogram has no rows")
    edges = np.append(cols["bin_left"], cols["bin_right"][-1])
    return Histogram(edges=edges, masses=cols["mass"], count=0)


def read_pdf_csv(path) -> dict:
    """Round-trip reader for the fitted-density table."""
    return _read_csv(
        path,
        PDF_CSV_HEADER.split(","),
        {"delta": float, "empirical_density": float, "model_density": float},
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, out_dir: Path, seed) -> None:
    params = _model_params(cfg)
    sim = _sim_config(cfg, seed)
    effective = dict(cfg, seed=seed)
    phash = _params_hash(effective)

    log.info("simulate: %d steps, mode=%s, seed=%s", sim.n_steps, sim.mode, seed)
    series = simulate_path(sim, params)

    rows = _path_rows(series)
    _write_csv(out_dir / "path.csv", _meta_line(seed, phash), PATH_CSV_HEADER, rows)
    _write_json(
        out_dir / "summary.json",
        {
            "command": "simulate",
            "version": __version__,
            "seed": seed,
            "params_sha256": phash,
            "config": effective,
            "rows": len(series),
            "final_price": float(series.s_trade[-1]),
            "net_log_return": series.net_log_return(),
            "bid_fraction": series.bid_fraction(),
            "spread_residual_max": series.spread_residual_max,
        },
    )
    print(f"wrote {out_dir / 'path.csv'} and {out_dir / 'summary.json'}")


def _ingest_fit_input(cfg: dict, config_dir: Path):
    fmt = _choice(cfg, "format", ("quotes", "ohlc"))
    input_name = _get(cfg, "input")
    if not isinstance(input_name, str):
        raise ValidationError(f"config key 'input': expected a file name, got {input_name!r}")
    input_path = Path(input_name)
    if not input_path.is_absolute():
        input_path = config_dir / input_path
    if not input_path.is_file():
        raise ValidationError(f"config key 'input': file not found: {input_path}")
    if fmt == "quotes":
        ingest = spreads_from_quotes(*read_quotes_csv(input_path))
        metadata = {"format": "quotes", "input": input_name}
    else:
        modes = (OHLC_MODE_ABSOLUTE, OHLC_MODE_RELATIVE)
        mode = _choice(cfg, "ohlc_mode", modes, OHLC_MODE_ABSOLUTE)
        ingest = spreads_from_ohlc(*read_ohlc_csv(input_path), mode=mode)
        metadata = {"format": "ohlc", "input": input_name, "ohlc_mode": mode}
        if mode == OHLC_MODE_RELATIVE:
            metadata["denominator"] = "close"
    return ingest, metadata


def cmd_fit(cfg: dict, out_dir: Path, seed, config_dir: Path) -> None:
    bins = _bins(cfg, 50)
    ingest, metadata = _ingest_fit_input(cfg, config_dir)
    effective = dict(cfg, seed=seed)
    phash = _params_hash(effective)

    values = ingest.values
    log.info("fit: %d usable samples from %d rows", values.size, ingest.n_rows)
    fit = fit_spread_params(values)
    law = SpreadLaw(xi1=fit.xi1_hat, kappa1=fit.kappa1_hat)

    hist = Histogram.from_samples(values, bins=bins, value_range=(0.0, float(values.max())))
    centers = hist.centers()
    model = spread_pdf(centers, law)
    empirical = hist.densities()
    rows = _float_rows(centers, empirical, model)
    _write_csv(out_dir / "pdf.csv", _meta_line(seed, phash), PDF_CSV_HEADER, rows)
    _write_json(
        out_dir / "fit.json",
        {
            "command": "fit",
            "version": __version__,
            "seed": seed,
            "params_sha256": phash,
            "metadata": metadata,
            "xi1_hat": fit.xi1_hat,
            "kappa1_hat": fit.kappa1_hat,
            "loglik": fit.loglik,
            "loglik_per_sample": fit.loglik / fit.n,
            "n": fit.n,
            "converged": fit.converged,
            "iterations": fit.iterations,
            "nfev": fit.nfev,
            "ingestion": ingest.drop_counts(),
        },
    )
    print(f"wrote {out_dir / 'fit.json'} and {out_dir / 'pdf.csv'}")


def cmd_imbalance(cfg: dict, out_dir: Path, seed) -> None:
    params = _model_params(cfg)
    sim = _sim_config(cfg, seed)
    n_paths = _integer(cfg, "n_paths")
    if n_paths * sim.n_steps > MAX_ENSEMBLE_STEPS:
        raise ValidationError(f"config keys 'n_paths' x 'n_steps' exceed the limit {MAX_ENSEMBLE_STEPS}")
    bins = _bins(cfg, 41)
    effective = dict(cfg, seed=seed)
    phash = _params_hash(effective)

    log.info("imbalance: %d paths x %d steps, mode=%s", n_paths, sim.n_steps, sim.mode)
    ensemble = simulate_ensemble(sim, params, n_paths)
    hist = q_of_i(ensemble, bins=bins)
    moments = imbalance_summary(ensemble)

    rows = _float_rows(hist.edges[:-1], hist.edges[1:], hist.masses)
    _write_csv(out_dir / "qi.csv", _meta_line(seed, phash), QI_CSV_HEADER, rows)
    _write_json(
        out_dir / "moments.json",
        {
            "command": "imbalance",
            "version": __version__,
            "seed": seed,
            "params_sha256": phash,
            "config": effective,
            **moments,
        },
    )
    print(f"wrote {out_dir / 'qi.csv'} and {out_dir / 'moments.json'}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcw",
        description="Coupled-wave bid/ask market model: simulate paths, fit the "
        "spread law, analyze execution imbalance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "generate one bid/ask/trade path"),
        ("fit", "fit the spread law to quote or OHLC data"),
        ("imbalance", "run a path ensemble and histogram the imbalance"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("QCW_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION

    _configure_logging()
    try:
        cfg = _load_config(args.config)
        _check_keys(cfg, args.command)
        config_dir = Path(args.config).resolve().parent
        out_dir = Path(args.out) if args.out is not None else Path(_get(cfg, "out_dir", "."))
        seed = args.seed if args.seed is not None else _integer(cfg, "seed", 0)
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "simulate":
            cmd_simulate(cfg, out_dir, seed)
        elif args.command == "fit":
            cmd_fit(cfg, out_dir, seed, config_dir)
        else:
            cmd_imbalance(cfg, out_dir, seed)
        return EXIT_OK
    except ValidationError as exc:
        print(f"qcw: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PricePositivityError as exc:
        print(f"qcw: numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"qcw: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
