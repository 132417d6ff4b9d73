"""Seeded inputs for the qcw benchmark.

Every workload config is the shipped ``configs/*.json`` document with only its
sizes raised and its seed replaced by one derived from the benchmark seed.
The fit inputs are CSV files drawn from ``sample_spread`` under a known law.
Beside the program's inputs the generator writes ``manifest.json``: the
operations of the workload, their sizes and the truth the checks compare
against. The spread samples are kept as ``.npy`` so that the benchmark can
run ``ks_distance`` without parsing the CSV again. The same seed gives
byte-identical files.

Run as a script to generate one workload's inputs:

    PYTHONPATH=src python3 perfbench/inputs.py --workload calibrate --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import qcw

WORKLOADS = ("path", "ensemble", "calibrate")

# Each operation takes about a second or less (the fits' KS steps a few), so
# that one run repeats it many times; see ``run.py`` for why that matters.
# The path workload is therefore several 10k-step paths, each with its own
# seed: their bid fraction is checked pooled, because one 10k-step path
# strays past 0.5 +- 0.02 on about 3% of seeds (sd 0.0095 over 60 seeds).
PATH_COUNT, PATH_STEPS = 5, 10_000
BALANCED_PATHS, BALANCED_STEPS = 200, 200
CRASH_PATHS, CRASH_STEPS = 500, 40
QUOTE_ROWS, QUOTE_LAW = 100_000, (0.10, 0.05)
# ~20:1 keeps b*delta^2 far above the I0 switch point (asymptotic branch);
# the 2:1 quote law keeps it on the power series.
OHLC_ROWS, OHLC_LAW = 100_000, (0.002, 0.0001)
# Allowed relative error of (xi1_hat, kappa1_hat). At 20:1 the small scale
# barely shapes the spread: over 1e5 bars the relative standard error of
# kappa1_hat is about 0.025 (xi1_hat: 0.002), so 0.05 would fail a correct
# fit on about 4% of seeds. 0.15 is six standard errors.
QUOTE_TOL, OHLC_TOL = (0.05, 0.05), (0.05, 0.15)


def _load(configs_dir: Path, name: str) -> dict:
    with open(configs_dir / name, encoding="utf-8") as handle:
        return json.load(handle)


def _dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_rows(path: Path, header: str, columns) -> None:
    lines = [header]
    lines.extend(",".join(map(repr, row)) for row in zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _stamps(n: int) -> list:
    return list(range(1_577_836_800, 1_577_836_800 + n))


def _mid_prices(rng: np.random.Generator, n: int) -> np.ndarray:
    return 100.0 * np.exp(np.cumsum(0.0005 * rng.standard_normal(n)))


def _quotes(rng: np.random.Generator, out_dir: Path) -> np.ndarray:
    spreads = qcw.sample_spread(qcw.SpreadLaw(*QUOTE_LAW), rng, QUOTE_ROWS)
    mid = _mid_prices(rng, QUOTE_ROWS)
    bid = mid - 0.5 * spreads
    ask = bid + spreads
    _write_rows(out_dir / "quotes.csv", "timestamp,bid,ask",
                (_stamps(QUOTE_ROWS), bid.tolist(), ask.tolist()))
    return ask - bid


def _ohlc(rng: np.random.Generator, out_dir: Path) -> np.ndarray:
    spreads = qcw.sample_spread(qcw.SpreadLaw(*OHLC_LAW), rng, OHLC_ROWS)
    close = _mid_prices(rng, OHLC_ROWS)
    high = close + spreads * close * rng.random(OHLC_ROWS)
    low = high - spreads * close
    open_ = low + (high - low) * rng.random(OHLC_ROWS)
    _write_rows(out_dir / "ohlc.csv", "timestamp,open,high,low,close",
                (_stamps(OHLC_ROWS), open_.tolist(), high.tolist(), low.tolist(),
                 close.tolist()))
    return (high - low) / close


def generate(workload: str, seed: int, out_dir: Path, configs_dir: Path) -> dict:
    """Write the inputs of ``workload`` into the new directory ``out_dir``.

    Returns the manifest, which is also written as ``manifest.json``.
    """
    out_dir.mkdir(parents=True)
    seq = np.random.SeedSequence(seed)
    config_seeds = [int(s) for s in seq.generate_state(PATH_COUNT)]
    ops = []

    if workload == "path":
        for i, cfg_seed in enumerate(config_seeds):
            cfg = dict(_load(configs_dir, "simulate_balanced.json"),
                       n_steps=PATH_STEPS, seed=cfg_seed)
            _dump(out_dir / f"simulate{i}.json", cfg)
            ops.append({"command": "simulate", "config": f"simulate{i}.json", "check": "path",
                        "n_steps": PATH_STEPS, "items": PATH_STEPS})

    elif workload == "ensemble":
        for name, kind, n_paths, n_steps, cfg_seed in (
            ("imbalance_balanced.json", "balanced", BALANCED_PATHS, BALANCED_STEPS,
             config_seeds[0]),
            ("imbalance_crash.json", "crash", CRASH_PATHS, CRASH_STEPS, config_seeds[1]),
        ):
            cfg = dict(_load(configs_dir, name), n_paths=n_paths, n_steps=n_steps,
                       seed=cfg_seed)
            _dump(out_dir / name, cfg)
            ops.append({"command": "imbalance", "config": name, "check": kind,
                        "samples": n_paths * n_steps, "items": n_paths * n_steps})

    else:
        rng = np.random.default_rng(seq.spawn(1)[0])
        base = dict(_load(configs_dir, "fit_quotes.json"), seed=config_seeds[0])
        _dump(out_dir / "fit_quotes.json", base)
        np.save(out_dir / "quotes_spreads.npy", _quotes(rng, out_dir))
        ops.append({"command": "fit", "config": "fit_quotes.json", "check": "fit",
                    "rows": QUOTE_ROWS, "truth": list(QUOTE_LAW),
                    "tolerance": list(QUOTE_TOL), "spreads": "quotes_spreads.npy",
                    "items": QUOTE_ROWS})
        _dump(out_dir / "fit_ohlc.json",
              dict(base, input="ohlc.csv", format="ohlc", ohlc_mode="relative"))
        np.save(out_dir / "ohlc_spreads.npy", _ohlc(rng, out_dir))
        ops.append({"command": "fit", "config": "fit_ohlc.json", "check": "fit",
                    "rows": OHLC_ROWS, "truth": list(OHLC_LAW),
                    "tolerance": list(OHLC_TOL), "spreads": "ohlc_spreads.npy",
                    "items": OHLC_ROWS})

    manifest = {"workload": workload, "seed": seed, "ops": ops}
    _dump(out_dir / "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--configs", type=Path,
                        default=Path(__file__).resolve().parent.parent / "configs")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.configs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
