"""Output checks of the qcw benchmark.

Each check reads what one CLI call wrote and returns the list of failed
conditions; an empty list means the output is correct. The checks parse the
files themselves instead of calling the program's readers, so a change to
those readers cannot hide a wrong output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

BID_FRACTION_TOL = 0.02
SPREAD_RESIDUAL_MAX = 1e-9
BALANCED_SKEW_MAX = 0.1
CRASH_NEGATIVE_MIN = 0.9
MASS_SUM_TOL = 1e-9
KS_MAX = 0.02


def _data_lines(path: Path):
    """Yield the header and then each row of a tool CSV as a list of fields."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield line.split(",")


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_path(out_dir: Path, n_steps: int) -> list:
    failures = []
    lines = _data_lines(out_dir / "path.csv")
    header = next(lines, [])
    try:
        i_bid, i_ask, i_trade = (header.index(c) for c in ("s_bid", "s_ask", "s_trade"))
    except ValueError:
        return [f"path.csv: unexpected header {','.join(header)!r}"]
    rows = unordered = 0
    for fields in lines:
        rows += 1
        if not float(fields[i_bid]) <= float(fields[i_trade]) <= float(fields[i_ask]):
            unordered += 1
    if rows != n_steps:
        failures.append(f"path.csv: {rows} rows, expected {n_steps}")
    if unordered:
        failures.append(f"path.csv: s_bid <= s_trade <= s_ask fails on {unordered} rows")
    summary = _load_json(out_dir / "summary.json")
    if not summary["spread_residual_max"] <= SPREAD_RESIDUAL_MAX:
        failures.append(f"spread_residual_max {summary['spread_residual_max']!r}")
    return failures


def bid_fraction(out_dir: Path) -> float:
    return _load_json(out_dir / "summary.json")["bid_fraction"]


def check_bid_fraction(paths: list) -> list:
    """Pooled bid fraction of several paths, given as (bid_fraction, n_steps)."""
    pooled = math.fsum(f * n for f, n in paths) / sum(n for _, n in paths)
    if not abs(pooled - 0.5) <= BID_FRACTION_TOL:
        return [f"pooled bid_fraction {pooled!r} outside 0.5 +- {BID_FRACTION_TOL}"]
    return []


def check_ensemble(out_dir: Path, kind: str, samples: int) -> list:
    failures = []
    lines = _data_lines(out_dir / "qi.csv")
    header = next(lines, [])
    if "mass" not in header:
        return [f"qi.csv: unexpected header {','.join(header)!r}"]
    i_mass = header.index("mass")
    total = math.fsum(float(fields[i_mass]) for fields in lines)
    if not abs(total - 1.0) <= MASS_SUM_TOL:
        failures.append(f"Q(I) masses sum to {total!r}")
    moments = _load_json(out_dir / "moments.json")
    if moments["n"] != samples:
        failures.append(f"moments.json: n = {moments['n']}, expected {samples}")
    if kind == "balanced" and not abs(moments["skewness"]) < BALANCED_SKEW_MAX:
        failures.append(f"balanced skewness {moments['skewness']!r}")
    if kind == "crash" and not moments["negative_fraction"] > CRASH_NEGATIVE_MIN:
        failures.append(f"crash negative_fraction {moments['negative_fraction']!r}")
    return failures


def _rel_errs(fit: dict, truth) -> tuple:
    return (abs(fit["xi1_hat"] - truth[0]) / truth[0],
            abs(fit["kappa1_hat"] - truth[1]) / truth[1])


def fit_rel_err(fit: dict, truth) -> float:
    """Largest relative error of (xi1_hat, kappa1_hat) against the true law."""
    return max(_rel_errs(fit, truth))


def check_fit(fit: dict, truth, tolerance, rows: int, ks: float) -> list:
    failures = []
    if fit["converged"] is not True:
        failures.append("fit did not converge")
    for name, err, tol in zip(("xi1_hat", "kappa1_hat"), _rel_errs(fit, truth), tolerance):
        if not err < tol:
            failures.append(f"{name} relative error {err!r} >= {tol} against {truth}")
    if not ks < KS_MAX:
        failures.append(f"KS distance {ks!r} of the fitted law")
    ingestion = fit["ingestion"]
    if not ingestion["kept"] == ingestion["rows"] == rows:
        failures.append(f"kept {ingestion['kept']} of {ingestion['rows']} rows, "
                        f"expected {rows}")
    return failures
