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
import dataclasses
import functools
import hashlib
import itertools
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
from .float_text import _fmt_column, _path_rows
from .market_sim import (
    MODE_BALANCED,
    MODE_IMBALANCE_COUPLED,
    POST_TRADE_COLLAPSE,
    POST_TRADE_SCRAMBLE,
    SimConfig,
    _lockstep_chunks,
    _log_return,
    _path_chunks,
    _pooled_q_of_i,
    _pooled_summary,
)
from .spread_stats import Histogram, SpreadLaw, spread_pdf
from .stochastic_model import ModelParams
from .wave_dynamics import StateVector

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Size limits, checked before anything is allocated: the histogram bins of
# `fit`/`imbalance`, the steps of one path, the paths of an ensemble (each
# holds 2-3 random generators of about 835 B) and the steps of a whole
# ensemble. README derives them.
MAX_BINS = 10**6
MAX_STEPS = 10**8
MAX_PATHS = 10**5
MAX_ENSEMBLE_STEPS = 10**8

PATH_CSV_HEADER = "t,s_bid,s_ask,s_trade,side,I"
QI_CSV_HEADER = "bin_left,bin_right,mass"
PDF_CSV_HEADER = "delta,empirical_density,model_density"

log = logging.getLogger("qcw")

_REQUIRED = object()

_MODEL_KEYS = tuple(field.name for field in dataclasses.fields(ModelParams))
_MODEL_DEFAULTS = {"xi0": 0.0, "kappa0": 0.0}
_SIM_KEYS = {
    *_MODEL_KEYS, "n_steps", "initial_price", "mode", "c_i", "post_trade", "initial_imbalance",
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
    if limit is not None and not 1 <= value <= limit:
        raise ValidationError(f"config key {key!r}: {value} is outside [1, {limit}]")
    return value


def _choice(cfg: dict, key: str, choices: tuple, default=_REQUIRED) -> str:
    value = _get(cfg, key, default)
    if value not in choices:
        raise ValidationError(
            f"config key {key!r}: expected one of {', '.join(map(repr, choices))}, "
            f"got {value!r}"
        )
    return value


def _model_params(cfg: dict) -> ModelParams:
    return ModelParams(
        **{key: _number(cfg, key, _MODEL_DEFAULTS.get(key, _REQUIRED)) for key in _MODEL_KEYS}
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


def _float_rows(*columns):
    """CSV text of equal-length float columns, one piece of rows per chunk."""
    for k0 in range(0, len(columns[0]), _FORMAT_ROWS):
        span = slice(k0, k0 + _FORMAT_ROWS)
        yield "\n".join(map(",".join, zip(*(_fmt_column(c[span]) for c in columns)))) + "\n"


def _atomic_write(path: Path, pieces) -> None:
    """Write the text ``pieces`` to a temp file beside ``path``, then rename it over ``path``.

    The temp file gets a fresh name and is created with O_EXCL, so concurrent
    runs into one directory never share one; mode 0o666 lets the umask set
    the permissions, as for any file the process creates. ``pieces`` may be
    a generator, consumed as it is written. On failure, its own included,
    the temp file is removed and ``path`` is left as it was.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_outputs(
    out_dir: Path, effective: dict, table: str, header: str, rows, summary: str, payload: dict
) -> None:
    """Write the CSV ``table`` and then the JSON ``summary``, each atomically.

    ``rows`` is the table's text below its header, in pieces of whole lines.
    It is consumed before ``payload`` is read, so a generator may fill
    ``payload`` as it goes. Both files carry the seed, the SHA-256 of the
    effective config and the version: the CSV in its ``#`` metadata line,
    the JSON beside the ``payload`` keys.
    """
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    seed = effective["seed"]
    phash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    head = f"# qcw={__version__} seed={seed} params_sha256={phash}\n{header}\n"
    _atomic_write(out_dir / table, itertools.chain([head], rows))
    stamp = {"version": __version__, "seed": seed, "params_sha256": phash}
    text = json.dumps({**payload, **stamp}, sort_keys=True, indent=2)
    _atomic_write(out_dir / summary, [text + "\n"])
    print(f"wrote {out_dir / table} and {out_dir / summary}")


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
    summary = {"command": "simulate", "config": effective, "rows": sim.n_steps}

    def chunks():  # the path's blocks on their way to path.csv, folded into the summary
        bids, resid_max = 0, 0.0
        for k0, block in _path_chunks(sim, params):
            bids += block.at_ask.size - int(np.count_nonzero(block.at_ask))
            resid_max = max(resid_max, float(block.residual_max))
            final_price = float(block.s_trade[-1])
            yield k0, block
        summary.update(
            final_price=final_price,
            net_log_return=_log_return(final_price, sim.initial_price),
            bid_fraction=bids / sim.n_steps,
            spread_residual_max=resid_max,
        )

    log.info("simulate: %d steps, mode=%s, seed=%s", sim.n_steps, sim.mode, seed)
    _write_outputs(
        out_dir, effective, "path.csv", PATH_CSV_HEADER, _path_rows(chunks()), "summary.json",
        summary,
    )


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
    bins = _integer(cfg, "bins", 50, limit=MAX_BINS)
    ingest, metadata = _ingest_fit_input(cfg, config_dir)

    values = ingest.values
    log.info("fit: %d usable samples from %d rows", values.size, ingest.n_rows)
    fit = fit_spread_params(values)
    law = SpreadLaw(xi1=fit.xi1_hat, kappa1=fit.kappa1_hat)

    hist = Histogram.from_samples(values, bins=bins, value_range=(0.0, float(values.max())))
    centers = hist.centers()
    model = spread_pdf(centers, law)
    empirical = hist.densities()
    _write_outputs(
        out_dir, dict(cfg, seed=seed), "pdf.csv", PDF_CSV_HEADER,
        _float_rows(centers, empirical, model), "fit.json",
        {
            "command": "fit",
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


def cmd_imbalance(cfg: dict, out_dir: Path, seed) -> None:
    params = _model_params(cfg)
    sim = _sim_config(cfg, seed)
    n_paths = _integer(cfg, "n_paths", limit=MAX_PATHS)
    if n_paths * sim.n_steps > MAX_ENSEMBLE_STEPS:
        raise ValidationError(f"config keys 'n_paths' x 'n_steps' exceed the limit {MAX_ENSEMBLE_STEPS}")
    bins = _integer(cfg, "bins", 41, limit=MAX_BINS)
    effective = dict(cfg, seed=seed)

    log.info("imbalance: %d paths x %d steps, mode=%s", n_paths, sim.n_steps, sim.mode)
    # Only the imbalance is kept; its path-major ravel is the pooled sample
    # in the order of the paths' concatenated columns.
    imbalance = np.empty((n_paths, sim.n_steps))
    for k0, block in _lockstep_chunks(sim, params, n_paths):
        imbalance[:, k0 : k0 + len(block.imbalance)] = block.imbalance.T
        del block  # free the chunk before the kernel draws the next
    values = imbalance.ravel()
    hist = _pooled_q_of_i(values, bins)
    moments = _pooled_summary(values)

    _write_outputs(
        out_dir, effective, "qi.csv", QI_CSV_HEADER,
        _float_rows(hist.edges[:-1], hist.edges[1:], hist.masses), "moments.json",
        {"command": "imbalance", "config": effective, **moments},
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once: each build costs about 0.5 ms of gettext lookups
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
        out_dir = args.out if args.out is not None else _get(cfg, "out_dir", ".")
        if not isinstance(out_dir, str) or "\0" in out_dir:
            raise ValidationError(
                f"config key 'out_dir': expected a directory name, got {reprlib.repr(out_dir)}"
            )
        out_dir = Path(out_dir)
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
