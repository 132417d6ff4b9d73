"""Golden outputs: the sha256 of every file a set of command runs writes,
and of every file the benchmark's own operations write at full size.

Determinism within one tree is criterion 10; this checks it across trees.
A change that moves any output bit fails here. If the change is meant, it
rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py --update

and CHANGES.md names each file that changed and why. The bits rest on
numpy's random streams and on scipy's special functions, so the manifest
records both versions and a run under other versions fails with both named.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from qcw import SpreadLaw, sample_spread
from qcw.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS_DIR = ROOT / "configs"
MANIFEST = Path(__file__).resolve().parent / "golden.json"
#: The seed at which the benchmark's own operations are run, at full size.
BENCH_SEED = 1201


def _shipped(name: str, **overrides) -> dict:
    cfg = json.loads((CONFIGS_DIR / f"{name}.json").read_text(encoding="utf-8"))
    return dict(cfg, **overrides)


def _write_rows(path: Path, header: str, columns) -> None:
    lines = [header] + [",".join(map(repr, row)) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_quotes(path: Path) -> None:
    """``quotes.csv`` as the CI smoke step writes it."""
    draws = sample_spread(SpreadLaw(xi1=0.10, kappa1=0.05), np.random.default_rng(1), 5000)
    lines = ["timestamp,bid,ask"] + [f"t{k},100.0,{100.0 + float(d)!r}" for k, d in enumerate(draws)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mid_prices(rng: np.random.Generator, n: int) -> np.ndarray:
    return 100.0 * np.exp(np.cumsum(0.0005 * rng.standard_normal(n)))


def _write_repr_quotes(path: Path, n: int = 20_000) -> None:
    """A quote file of 17-digit ``repr`` prices around a random walk, with
    integer timestamps: the shape of the benchmark's ``quotes.csv``."""
    rng = np.random.default_rng(2)
    spreads = sample_spread(SpreadLaw(xi1=0.10, kappa1=0.05), rng, n)
    bid = _mid_prices(rng, n) - 0.5 * spreads
    _write_rows(path, "timestamp,bid,ask",
                (range(1_577_836_800, 1_577_836_800 + n), bid.tolist(), (bid + spreads).tolist()))


def _write_bars(path: Path, n: int = 20_000) -> None:
    """OHLC bars whose relative range follows the 20:1 law, in ``repr`` prices."""
    rng = np.random.default_rng(3)
    spreads = sample_spread(SpreadLaw(xi1=0.002, kappa1=0.0001), rng, n)
    close = _mid_prices(rng, n)
    high = close + spreads * close * rng.random(n)
    low = high - spreads * close
    open_ = low + (high - low) * rng.random(n)
    _write_rows(path, "timestamp,open,high,low,close",
                (range(1_577_836_800, 1_577_836_800 + n), open_.tolist(), high.tolist(),
                 low.tolist(), close.tolist()))


_BARS = {"input": "bars.csv", "format": "ohlc", "ohlc_mode": "relative"}
#: one path of the crash config: ``qcw simulate`` takes no ``n_paths`` or ``bins``
_CRASH_PATH = {k: v for k, v in _shipped("imbalance_crash").items() if k not in ("n_paths", "bins")}

#: Run name -> (command, config). Each run writes into a directory of its name.
RUNS = {
    "simulate_balanced": ("simulate", _shipped("simulate_balanced")),
    "simulate_10k_seed1201": ("simulate", _shipped("simulate_balanced", n_steps=10_000, seed=1201)),
    "simulate_10k_seed4242": ("simulate", _shipped("simulate_balanced", n_steps=10_000, seed=4242)),
    "imbalance_balanced_36": ("imbalance", _shipped("imbalance_balanced", n_paths=36)),
    "imbalance_crash_36": ("imbalance", _shipped("imbalance_crash", n_paths=36)),
    "simulate_crash_coupled": ("simulate", _CRASH_PATH),
    "simulate_crash_collapse": ("simulate", dict(_CRASH_PATH, post_trade="collapse")),
    "fit_quotes": ("fit", _shipped("fit_quotes")),
    "fit_quotes_repr17": ("fit", _shipped("fit_quotes")),
    "fit_ohlc_relative": ("fit", _shipped("fit_quotes", **_BARS)),
}

#: Run name -> the writer of its input file, named as its config's ``input``.
INPUTS = {
    "fit_quotes": _write_quotes,
    "fit_quotes_repr17": _write_repr_quotes,
    "fit_ohlc_relative": _write_bars,
}


def _bench_inputs():
    """``perfbench/inputs.py``, loaded by path: ``perfbench`` is no package."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(name: str, command: str, config: Path, out: Path, digests: dict) -> None:
    """Run ``qcw command`` on ``config`` into ``out``; record the sha256 of each output."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(out)])
    assert code == 0, f"{name}: qcw {command} exited with {code}"
    for path in sorted(out.iterdir()):
        digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(work: Path) -> dict:
    """Run every entry of :data:`RUNS`, then every operation of the
    benchmark's workloads at :data:`BENCH_SEED`, under ``work``; sha256 of
    each output file."""
    digests = {}
    for name, (command, cfg) in RUNS.items():
        run_dir = work / name
        run_dir.mkdir(parents=True)
        if name in INPUTS:
            INPUTS[name](run_dir / cfg["input"])
        config = run_dir / "config.json"
        config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        _run(name, command, config, run_dir / "out", digests)
    bench = _bench_inputs()
    for workload in bench.WORKLOADS:
        inputs = work / f"bench_{workload}"
        for op in bench.generate(workload, BENCH_SEED, inputs, CONFIGS_DIR)["ops"]:
            name = f"bench_{workload}_{Path(op['config']).stem}"
            _run(name, op["command"], inputs / op["config"], work / name, digests)
    return digests


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_outputs_match_golden_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    recorded, running = manifest["versions"], versions()
    assert running == recorded, (
        f"golden outputs were recorded under {recorded} but this is {running}; "
        "install the recorded versions (see .github/constraints.txt)"
    )
    digests = output_digests(tmp_path)
    changed = sorted(k for k in manifest["files"].keys() | digests.keys()
                     if manifest["files"].get(k) != digests.get(k))
    assert changed == [], f"outputs differ from {MANIFEST.name}: {changed}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --update")
    with tempfile.TemporaryDirectory() as work:
        files = output_digests(Path(work))
    MANIFEST.write_text(
        json.dumps({"versions": versions(), "files": files}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(files)} digests to {MANIFEST}")
