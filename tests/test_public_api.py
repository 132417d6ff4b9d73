"""The names ``qcw`` exports: the README's contract and the oracles' inputs.

A name is kept only as a public contract or because a reference oracle or an
acceptance criterion needs it, so the exported set is pinned here and cannot
grow back unnoticed.
"""

import re
import types
from pathlib import Path

import qcw

PUBLIC_NAMES = {
    # parameters, configs and errors
    "ModelParams", "SimConfig", "SpreadLaw", "ValidationError", "PricePositivityError",
    # the scalar API: the price operator, its eigenprices and eigenstates, the amplitude pair
    "PriceOperator2", "PriceLevels", "eigenprices", "eigenprices_batch", "eigenvectors",
    "StateVector", "propagate", "randomize_phase", "probabilities", "imbalance",
    # simulation and its reductions
    "PathSeries", "CrashReport", "BookLevel", "simulate_path", "simulate_ensemble",
    "simulate_crash", "effective_levels", "q_of_i", "imbalance_summary",
    # the spread law
    "Histogram", "SpreadCdfCache", "bessel_i0_scaled", "spread_pdf", "spread_log_pdf",
    "spread_cdf", "sample_spread", "ks_distance",
    # ingest and calibration
    "IngestResult", "FitResult", "read_quotes_csv", "read_ohlc_csv", "spreads_from_quotes",
    "spreads_from_ohlc", "fit_spread_params",
}


def test_exports_are_the_pinned_public_names():
    exported = {n for n in qcw.__all__ if not isinstance(getattr(qcw, n), types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_readme_and_oracle_imports_are_exported():
    sources = [
        Path(__file__).resolve().parents[1] / "README.md",
        Path(__file__).with_name("oracles.py"),
    ]
    for source in sources:
        imports = re.findall(r"from qcw import (?:\(([^)]*)\)|([^\n]*))", source.read_text())
        names = {n for group in imports for n in re.split(r"[\s,]+", "".join(group)) if n}
        assert names, source
        assert names <= PUBLIC_NAMES, (source, names - PUBLIC_NAMES)
