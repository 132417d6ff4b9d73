"""Trade engine: level selection, path simulation, crash mode, imbalance stats.

One step is one trade opportunity of duration dt: draw fresh operator
elements around the last trade price, decompose into bid/ask levels,
propagate the amplitude pair over the step, execute at one level according
to the execution probabilities, then apply the post-trade rule (relative
phase scramble, or collapse onto the executed level).

Two modes: in ``balanced`` mode the coupling kappa is drawn around its
configured mean; in ``imbalance-coupled`` mode its mean is replaced by
c_i * I(t) before drawing, which ties coupling strength to the execution
imbalance and produces persistent one-sided execution (the crash mechanism)
when the path starts far from balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PricePositivityError, ValidationError
from .operator_core import PriceLevels, eigenprices
from .spread_stats import Histogram
from .stochastic_model import ModelParams, draw_elements, step_operator
from .wave_dynamics import StateVector, imbalance, probabilities, propagate, randomize_phase

__all__ = [
    "MODE_BALANCED",
    "MODE_IMBALANCE_COUPLED",
    "POST_TRADE_SCRAMBLE",
    "POST_TRADE_COLLAPSE",
    "SimConfig",
    "PathPoint",
    "PathSeries",
    "BookLevel",
    "CrashReport",
    "select_trade",
    "simulate_path",
    "simulate_ensemble",
    "simulate_crash",
    "effective_levels",
    "q_of_i",
    "imbalance_summary",
]

MODE_BALANCED = "balanced"
MODE_IMBALANCE_COUPLED = "imbalance-coupled"
POST_TRADE_SCRAMBLE = "phase-scramble"
POST_TRADE_COLLAPSE = "collapse"

_ASK_STATE = StateVector(1.0, 0.0)
_BID_STATE = StateVector(0.0, 1.0)


@dataclass(frozen=True)
class SimConfig:
    """Run configuration for a single simulated path.

    ``seed`` may be an int or a numpy SeedSequence; either way the run is
    fully deterministic. Three independent sub-streams are derived from it
    (element draws, trade selection, phase scrambles) so that disabling one
    consumer cannot shift the draws seen by another.
    """

    n_steps: int
    initial_price: float
    initial_state: StateVector = StateVector.balanced()
    mode: str = MODE_BALANCED
    c_i: float = 0.0
    post_trade: str = POST_TRADE_SCRAMBLE
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if not isinstance(self.n_steps, int) or self.n_steps < 1:
            raise ValidationError("n_steps must be an integer >= 1")
        if (
            not isinstance(self.initial_price, (int, float))
            or not math.isfinite(self.initial_price)
            or self.initial_price <= 0
        ):
            raise ValidationError("initial_price must be a finite number > 0")
        object.__setattr__(self, "initial_price", float(self.initial_price))
        self.initial_state.require_normalized()
        if self.mode not in (MODE_BALANCED, MODE_IMBALANCE_COUPLED):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.post_trade not in (POST_TRADE_SCRAMBLE, POST_TRADE_COLLAPSE):
            raise ValidationError(f"unknown post_trade rule {self.post_trade!r}")
        if not isinstance(self.c_i, (int, float)) or not math.isfinite(self.c_i):
            raise ValidationError("c_i must be a finite number")
        object.__setattr__(self, "c_i", float(self.c_i))


@dataclass(frozen=True)
class PathPoint:
    """One recorded step: quoted levels, the executed trade and the imbalance.

    Invariant: s_bid <= s_trade <= s_ask, with ``side`` naming the executed
    level. ``imbalance`` is sampled after propagation, before the post-trade
    rule is applied.
    """

    t: int
    s_bid: float
    s_ask: float
    s_trade: float
    side: str
    imbalance: float


@dataclass(eq=False)
class PathSeries:
    """Column-oriented record of one simulated path.

    ``xi``/``kappa`` keep the per-step element draws so identities tying the
    recorded spread to sqrt(xi^2 + |kappa|^2) can be re-checked exactly.
    ``spread_residual_max`` is the largest absolute deviation of that
    identity observed while the path was generated.
    """

    t: np.ndarray
    s_bid: np.ndarray
    s_ask: np.ndarray
    s_trade: np.ndarray
    side: np.ndarray
    imbalance: np.ndarray
    xi: np.ndarray
    kappa: np.ndarray
    initial_price: float
    seed: int | np.random.SeedSequence
    spread_residual_max: float

    def __len__(self) -> int:
        return int(self.t.size)

    def point(self, k: int) -> PathPoint:
        return PathPoint(
            t=int(self.t[k]),
            s_bid=float(self.s_bid[k]),
            s_ask=float(self.s_ask[k]),
            s_trade=float(self.s_trade[k]),
            side=str(self.side[k]),
            imbalance=float(self.imbalance[k]),
        )

    def bid_fraction(self) -> float:
        return float(np.mean(self.side == "bid"))

    def net_log_return(self) -> float:
        return float(math.log(float(self.s_trade[-1]) / self.initial_price))


@dataclass(frozen=True)
class BookLevel:
    """One order-book level: price and resting size (share count > 0)."""

    price: float
    size: float

    def __post_init__(self):
        if not math.isfinite(self.price):
            raise ValidationError("level price must be finite")
        if not math.isfinite(self.size) or self.size <= 0:
            raise ValidationError("level size must be > 0")


@dataclass(frozen=True)
class CrashReport:
    """A crash-scenario path plus the summary statistics of its mechanism."""

    path: PathSeries
    bid_fraction: float
    net_log_return: float
    q_hist: Histogram


def _child_seed(ss: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """Deterministic child stream; avoids mutating spawn state on ``ss``."""
    return np.random.SeedSequence(entropy=ss.entropy, spawn_key=(*ss.spawn_key, index))


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def select_trade(
    levels: PriceLevels, state: StateVector, rng: np.random.Generator
) -> tuple[float, str]:
    """Execute at the ask with probability |psi_ask|^2, else at the bid."""
    p_ask, _ = probabilities(state)
    if rng.random() < p_ask:
        return levels.s_ask, "ask"
    return levels.s_bid, "bid"


def simulate_path(config: SimConfig, params: ModelParams) -> PathSeries:
    """Generate one coordinated bid/ask/trade path.

    Deterministic given (config, params): the same seed yields an identical
    series. Raises :class:`PricePositivityError` if a trade price reaches
    zero or below (the arithmetic price formulation permits it; aborting
    keeps recorded statistics unbiased).
    """
    root = _seed_sequence(config.seed)
    rng_elem = np.random.default_rng(_child_seed(root, 0))
    rng_trade = np.random.default_rng(_child_seed(root, 1))
    rng_phase = np.random.default_rng(_child_seed(root, 2))

    n = config.n_steps
    t = np.arange(n, dtype=np.int64)
    s_bid = np.empty(n)
    s_ask = np.empty(n)
    s_trade_arr = np.empty(n)
    side_arr = np.empty(n, dtype="U3")
    imb = np.empty(n)
    xi_arr = np.empty(n)
    kappa_arr = np.empty(n, dtype=complex if params.complex_coupling else float)

    coupled = config.mode == MODE_IMBALANCE_COUPLED
    collapse = config.post_trade == POST_TRADE_COLLAPSE
    state = config.initial_state
    s_trade = config.initial_price
    resid_max = 0.0

    for k in range(n):
        if coupled:
            draw = draw_elements(params, rng_elem, kappa_mean=config.c_i * imbalance(state))
        else:
            draw = draw_elements(params, rng_elem)
        levels = eigenprices(step_operator(s_trade, params, draw))
        state = propagate(state, draw.xi, draw.kappa, levels.s_mid, params)
        i_k = imbalance(state)
        price, side = select_trade(levels, state, rng_trade)
        if price <= 0.0:
            raise PricePositivityError(step=k, price=price)
        if collapse:
            state = _ASK_STATE if side == "ask" else _BID_STATE
        else:
            state = randomize_phase(state, rng_phase)

        s_bid[k] = levels.s_bid
        s_ask[k] = levels.s_ask
        s_trade_arr[k] = price
        side_arr[k] = side
        imb[k] = i_k
        xi_arr[k] = draw.xi
        kappa_arr[k] = draw.kappa
        resid = abs(levels.delta - math.hypot(draw.xi, abs(draw.kappa)))
        if resid > resid_max:
            resid_max = resid
        s_trade = price

    return PathSeries(
        t=t,
        s_bid=s_bid,
        s_ask=s_ask,
        s_trade=s_trade_arr,
        side=side_arr,
        imbalance=imb,
        xi=xi_arr,
        kappa=kappa_arr,
        initial_price=config.initial_price,
        seed=config.seed,
        spread_residual_max=resid_max,
    )


def simulate_ensemble(config: SimConfig, params: ModelParams, n_paths: int) -> list[PathSeries]:
    """Independent paths on disjoint sub-streams derived from the config seed.

    Path k uses the k-th child of the master seed, so the ensemble is
    reproducible as a whole and each member individually; merging statistics
    across members is order-independent. A :class:`PricePositivityError`
    names the path index ``k`` that aborted.
    """
    if not isinstance(n_paths, int) or n_paths < 1:
        raise ValidationError("n_paths must be an integer >= 1")
    root = _seed_sequence(config.seed)
    paths = []
    for k in range(n_paths):
        try:
            paths.append(simulate_path(replace(config, seed=_child_seed(root, k)), params))
        except PricePositivityError as exc:
            raise PricePositivityError(exc.step, exc.price, path=k) from exc
    return paths


def simulate_crash(config: SimConfig, params: ModelParams, bins: int = 41) -> CrashReport:
    """Run an imbalance-coupled path and summarize its directional mechanism.

    Meant for initial states far from balance (|I(0)| near 1): with coupling
    tied to the imbalance, executions concentrate on one side and the price
    drifts without any exogenous force. The report carries the bid-execution
    fraction, the net log price change and the Q(I) histogram.
    """
    if config.mode != MODE_IMBALANCE_COUPLED:
        raise ValidationError("crash scenario requires mode='imbalance-coupled'")
    path = simulate_path(config, params)
    return CrashReport(
        path=path,
        bid_fraction=path.bid_fraction(),
        net_log_return=path.net_log_return(),
        q_hist=q_of_i([path], bins=bins),
    )


def effective_levels(
    asks: list[BookLevel], bids: list[BookLevel], n: int
) -> tuple[float, float]:
    """Size-weighted effective ask/bid over the top ``n`` book levels.

    Collapses multilevel books onto a single effective level per side so the
    two-level machinery applies to deep orders. Levels are ranked best-first
    (lowest ask, highest bid); if a side is shallower than ``n`` the whole
    side is used. Raises on an empty side: with no counterparty there is no
    effective level to quote.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError("n must be an integer >= 1")
    if not asks:
        raise ValidationError("no ask levels: cannot form an effective ask")
    if not bids:
        raise ValidationError("no bid levels: cannot form an effective bid")

    def weighted(levels: list[BookLevel], best_first) -> float:
        top = sorted(levels, key=best_first)[:n]
        sizes = np.array([lv.size for lv in top])
        prices = np.array([lv.price for lv in top])
        return float(np.dot(prices, sizes) / sizes.sum())

    return weighted(asks, lambda lv: lv.price), weighted(bids, lambda lv: -lv.price)


def q_of_i(ensemble: list[PathSeries], bins: int = 41) -> Histogram:
    """Normalized histogram Q(I) of all recorded imbalances over [-1, 1]."""
    if not ensemble:
        raise ValidationError("cannot build Q(I) from an empty ensemble")
    values = np.concatenate([p.imbalance for p in ensemble])
    return Histogram.from_samples(values, bins=bins, value_range=(-1.0, 1.0))


def imbalance_summary(ensemble: list[PathSeries]) -> dict:
    """Moments of the pooled imbalance samples plus the negative-side mass."""
    if not ensemble:
        raise ValidationError("cannot summarize an empty ensemble")
    values = np.concatenate([p.imbalance for p in ensemble])
    mean = float(values.mean())
    centered = values - mean
    variance = float(np.mean(centered**2))
    skewness = float(np.mean(centered**3) / variance**1.5) if variance > 0 else 0.0
    return {
        "n": int(values.size),
        "mean": mean,
        "variance": variance,
        "skewness": skewness,
        "negative_fraction": float(np.mean(values < 0.0)),
    }
