"""Coupled-wave bid/ask market model toolkit.

Bid and ask prices are the eigenvalues of a fluctuating 2x2 Hermitian price
operator; a complex amplitude pair over the two levels fixes execution
probabilities and evolves unitarily between trades. The package simulates
coordinated bid/ask/trade paths, evaluates and fits the analytic bid-ask
spread distribution, and reproduces directional price moves driven by
execution-imbalance coupling rather than exogenous forces.
"""

__version__ = "0.1.0"

from .calibration import (
    FitResult,
    IngestResult,
    fit_spread_params,
    read_ohlc_csv,
    read_quotes_csv,
    spreads_from_ohlc,
    spreads_from_quotes,
)
from .errors import PricePositivityError, ValidationError
from .market_sim import (
    PathSeries,
    SimConfig,
    imbalance_summary,
    q_of_i,
    simulate_ensemble,
    simulate_path,
)
from .operator_core import (
    PriceLevels,
    PriceOperator2,
    eigenprices,
    eigenprices_batch,
)
from .spread_stats import (
    Histogram,
    SpreadLaw,
    bessel_i0_scaled,
    ks_distance,
    sample_spread,
    spread_cdf,
    spread_log_pdf,
    spread_pdf,
)
from .stochastic_model import ModelParams
from .wave_dynamics import (
    StateVector,
    imbalance,
    probabilities,
    propagate,
    randomize_phase,
)

__all__ = [name for name in dir() if not name.startswith("_")]
