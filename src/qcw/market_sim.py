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

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import PricePositivityError, ValidationError
from .spread_stats import Histogram
from .stochastic_model import ModelParams
# ``propagate`` is not called here; perfbench's layer tracer wraps it at this name.
from .wave_dynamics import RENORM_TRIGGER, StateVector, propagate  # noqa: F401

__all__ = [
    "MODE_BALANCED",
    "MODE_IMBALANCE_COUPLED",
    "POST_TRADE_SCRAMBLE",
    "POST_TRADE_COLLAPSE",
    "SimConfig",
    "PathSeries",
    "BookLevel",
    "CrashReport",
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

#: Steps per bulk draw of the random sub-streams. Bounds the kernel's working
#: memory beyond its output arrays; the draws do not depend on it.
_CHUNK_STEPS = 4096


@dataclass(frozen=True)
class SimConfig:
    """Run configuration for a single simulated path.

    ``seed`` may be an integer >= 0 or a numpy SeedSequence; either way the
    run is fully deterministic. Four independent sub-streams are derived
    from it (element draws, trade selection, phase scrambles, and the
    coupling phases of ``complex_coupling``) so that disabling one consumer
    cannot shift the draws seen by another.
    """

    n_steps: int
    initial_price: float
    initial_state: StateVector = StateVector.balanced()
    mode: str = MODE_BALANCED
    c_i: float = 0.0
    post_trade: str = POST_TRADE_SCRAMBLE
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, int) or self.n_steps < 1:
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
        if not isinstance(self.seed, np.random.SeedSequence):
            try:
                seed = -1 if isinstance(self.seed, bool) else operator.index(self.seed)
            except TypeError:
                seed = -1
            if seed < 0:
                raise ValidationError("seed must be an integer >= 0 or a numpy SeedSequence")
            object.__setattr__(self, "seed", seed)


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
    return np.random.SeedSequence(seed)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value) -> list[int]:
    """The little-endian uint32 words SeedSequence reads from an int or a sequence of ints."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK32]  # 0 is one word
        while value := value >> 32:
            words.append(value & _MASK32)
        return words
    return [word for item in value for word in _uint32_words(item)]


class _Hashmix:
    """SeedSequence's ``hashmix``; its multiplier advances by a fixed sequence.

    ``generate_state`` hashes each output word the same way, with its own
    constants. Values are Python ints below 2**32 or uint32 arrays, which
    wrap as the masks do; so common words are hashed once and per-child
    words elementwise.
    """

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> 16


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


class _HashedSeed(ISeedSequence):
    """Hands ``PCG64`` the four uint64 state words of a SeedSequence hashed in bulk."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _n_streams(collapse: bool, complex_coupling: bool) -> int:
    """Sub-streams a path uses: 0 elements, 1 trades, 2 phase scrambles (not
    under collapse), 3 coupling phases (only with ``complex_coupling``, which
    therefore builds stream 2 even under collapse)."""
    return 4 if complex_coupling else 2 if collapse else 3


def _child_rngs(root: np.random.SeedSequence, *sizes: int) -> np.ndarray:
    """Generators of every child of ``root`` whose last spawn-key words are (k_1, ..., k_m).

    Entry ``[k_1, ..., k_m]`` of the returned object array of shape ``sizes``
    is bitwise ``default_rng`` of ``_child_seed`` applied m times, with
    k_j < sizes[j]. The hash runs once over the words that all children
    share (the root's entropy, zero-padded to the pool size, and its spawn
    key) and then elementwise over the k_j, so a child costs a few numpy
    element operations instead of a SeedSequence.
    """
    assert all(size < 2**32 for size in sizes)  # one word per k_j
    entropy = _uint32_words(root.entropy)
    words = entropy + [0] * (_POOL_SIZE - len(entropy)) + _uint32_words(root.spawn_key)
    hashmix = _Hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    keys = np.ix_(*(np.arange(size, dtype=np.uint32) for size in sizes))
    for word in words[_POOL_SIZE:] + list(keys):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): 8 uint32 words drawn round the pool, paired little-endian
    hash_out = _Hashmix(_INIT_B, _MULT_B)
    out = [hash_out(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    state = np.stack([lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])], axis=-1)
    rngs = [Generator(PCG64(_HashedSeed(row))) for row in state.reshape(-1, 4)]
    return np.array(rngs, dtype=object).reshape(sizes)


def simulate_path(config: SimConfig, params: ModelParams) -> PathSeries:
    """Generate one coordinated bid/ask/trade path.

    Deterministic given (config, params): the same seed yields an identical
    series. The step loop runs on plain floats over sub-stream draws made in
    bulk, chunk by chunk, which are bitwise those of one draw per step. Per
    chunk it also takes the step rotations from :func:`_rotations`, as the
    lockstep kernel does, and the cos/sin of the phase scrambles, so a step
    computes only what depends on the state. In ``imbalance-coupled`` mode
    kappa depends on the state, and the rotation is formed step by step,
    rounded as :func:`_rotations` rounds it.

    Raises :class:`ValidationError` if a level, the propagation phase or the
    rotation angle is not finite, and :class:`PricePositivityError` if a
    trade price reaches zero or below (the arithmetic price formulation
    permits it; aborting keeps recorded statistics unbiased). Each names
    its step.
    """
    coupled = config.mode == MODE_IMBALANCE_COUPLED
    collapse = config.post_trade == POST_TRADE_COLLAPSE
    complex_coupling = params.complex_coupling
    rngs = _child_rngs(_seed_sequence(config.seed), _n_streams(collapse, complex_coupling))
    rng_elem, rng_trade = rngs[:2]
    if not collapse:
        rng_phase = rngs[2]
    if complex_coupling:
        rng_coupling = rngs[3]

    n = config.n_steps
    s_bid, s_ask, s_trade_arr, imb, xi_arr = (np.empty(n) for _ in range(5))
    at_ask = np.empty(n, dtype=bool)
    kappa_arr = np.empty(n, dtype=complex if complex_coupling else float)

    sigma, xi0, xi1 = params.sigma, params.xi0, params.xi1
    kappa0, kappa1, c_i = params.kappa0, params.kappa1, config.c_i
    dt, scale = params.dt, params.tau * params.s0
    hypot, isfinite, sqrt, cos, sin, exp = (
        math.hypot, math.isfinite, math.sqrt, math.cos, math.sin, cmath.exp
    )
    psi_ask, psi_bid = config.initial_state.psi_ask, config.initial_state.psi_bid
    ar, ai, br, bi = psi_ask.real, psi_ask.imag, psi_bid.real, psi_bid.imag
    s_trade = config.initial_price
    resid_max = 0.0
    unused = repeat(None)  # stands in for a column that a mode does not use

    with np.errstate(all="ignore"):
        for k0 in range(0, n, _CHUNK_STEPS):
            m = min(_CHUNK_STEPS, n - k0)
            dz, nx, nk = rng_elem.standard_normal((m, 3)).T
            xi = xi0 + xi1 * nx
            xi_arr[k0 : k0 + m] = xi
            if complex_coupling:
                coupling_phases = rng_coupling.uniform(0.0, 2.0 * math.pi, m)
            if coupled:
                # kappa follows the state, so the rotation is formed step by step
                kappa_noise = (kappa1 * nk).tolist()
                kappa_phases = coupling_phases.tolist() if complex_coupling else unused
                rotations = (unused,) * 7
                kappas = [0.0] * m
            else:
                kappa_noise = kappa_phases = unused
                kappa = kappa0 + kappa1 * nk
                if complex_coupling:
                    kappa = _with_phase(kappa, coupling_phases)
                kappa_arr[k0 : k0 + m] = kappa
                rotations = [r.tolist() for r in _rotations(xi, kappa, dt, scale)]
            if collapse:
                scramble = (unused, unused)
            else:
                thetas = rng_phase.uniform(0.0, 2.0 * math.pi, m)
                scramble = np.cos(thetas).tolist(), np.sin(thetas).tolist()
            bids, asks, sides, imbs, half_deltas, deltas = ([0.0] * m for _ in range(6))

            for j, (dz_j, xi_j, u, half_k, delta, finite_angle, c, x, p, q,
                    sc, ss, k_noise, k_phase) in enumerate(zip(
                        dz.tolist(), xi.tolist(), rng_trade.random(m).tolist(),
                        *rotations, *scramble, kappa_noise, kappa_phases)):
                if coupled:
                    i_now = (ar * ar + ai * ai) - (br * br + bi * bi)
                    kappa = c_i * min(1.0, max(-1.0, i_now)) + k_noise
                    if complex_coupling:
                        kappa = kappa * exp(1j * k_phase)
                    kappas[j] = kappa
                    half_k = abs(0.5 * kappa)
                    delta = hypot(xi_j, abs(kappa))
                    phi = 0.5 * delta * dt / scale
                    finite_angle = isfinite(phi)

                # levels: the eigenvalues of [[common + xi/2, kappa/2], [., common - xi/2]]
                common = s_trade + s_trade * sigma * dz_j
                s11 = common + 0.5 * xi_j
                s22 = common - 0.5 * xi_j
                half_delta = hypot(0.5 * (s11 - s22), half_k)
                s_mid = 0.5 * (s11 + s22)
                ask = s_mid + half_delta
                bid = s_mid - half_delta
                phase = s_mid * dt / scale
                if not (isfinite(ask) and isfinite(bid) and isfinite(phase) and finite_angle):
                    _check_finite(k0 + j, ask, bid, phase, finite_angle)

                if coupled:  # as _rotations rounds it; the identity where delta = 0
                    c, x, p, q = 1.0, 0.0, 0.0, 0.0
                    if delta != 0.0:
                        s = sin(phi)
                        c = cos(phi)
                        x = xi_j / delta * s
                        p = kappa.real / delta * s
                        q = kappa.imag / delta * s
                # global phase exp(-1j*phase), then the bracket, in propagate's order
                gc, gs = cos(-phase), sin(-phase)
                ur = (c * ar + x * ai) + (q * br + p * bi)
                ui = (c * ai - x * ar) + (q * bi - p * br)
                vr = (p * ai - q * ar) + (c * br - x * bi)
                vi = (c * bi + x * br) - (q * ai + p * ar)
                ar, ai = gc * ur - gs * ui, gc * ui + gs * ur
                br, bi = gc * vr - gs * vi, gc * vi + gs * vr
                norm = ar * ar + ai * ai + br * br + bi * bi
                if abs(norm - 1.0) > RENORM_TRIGGER and delta != 0.0:
                    r = 1.0 / sqrt(norm)
                    ar, ai, br, bi = ar * r, ai * r, br * r, bi * r

                p_ask = ar * ar + ai * ai
                side = u < p_ask
                price = ask if side else bid
                if price <= 0.0:
                    raise PricePositivityError(step=k0 + j, price=price)
                bids[j] = bid
                asks[j] = ask
                sides[j] = side
                imbs[j] = p_ask - (br * br + bi * bi)
                half_deltas[j] = half_delta
                deltas[j] = delta
                if collapse:
                    ar, ai, br, bi = (1.0, 0.0, 0.0, 0.0) if side else (0.0, 0.0, 1.0, 0.0)
                else:
                    ar, ai = ar * sc - ai * ss, ar * ss + ai * sc
                s_trade = price

            span = slice(k0, k0 + m)
            s_bid[span], s_ask[span], at_ask[span], imb[span] = bids, asks, sides, imbs
            np.clip(imb[span], -1.0, 1.0, out=imb[span])
            s_trade_arr[span] = np.where(at_ask[span], s_ask[span], s_bid[span])
            if coupled:
                kappa_arr[span] = kappas
            resid = np.abs(2.0 * np.array(half_deltas) - np.array(deltas)).max()
            resid_max = max(resid_max, float(resid))

    return PathSeries(
        t=np.arange(n, dtype=np.int64),
        s_bid=s_bid,
        s_ask=s_ask,
        s_trade=s_trade_arr,
        side=np.where(at_ask, "ask", "bid"),
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
    across members is order-independent. Every path is bitwise the
    :func:`simulate_path` run on its child seed, but all paths advance in
    lockstep, one numpy operation over the path axis per step.

    A path that aborts stops the whole ensemble. The abort reported is the
    first in step order, the lowest path index on a tie, and its message
    names that step and path: :class:`ValidationError` for a level, phase or
    rotation angle that is not finite, :class:`PricePositivityError` (with
    ``step`` and ``path`` set) for a trade price at or below zero.
    """
    if isinstance(n_paths, bool) or not isinstance(n_paths, int) or n_paths < 1:
        raise ValidationError("n_paths must be an integer >= 1")
    root = _seed_sequence(config.seed)
    with np.errstate(all="ignore"):
        columns, resid_max = _simulate_lockstep(config, params, root, n_paths)
    t = np.arange(config.n_steps, dtype=np.int64)
    s_bid, s_ask, s_trade, at_ask, imb, xi, kappa = columns
    side = np.where(at_ask, "ask", "bid")
    return [
        PathSeries(
            t=t,
            s_bid=s_bid[k],
            s_ask=s_ask[k],
            s_trade=s_trade[k],
            side=side[k],
            imbalance=imb[k],
            xi=xi[k],
            kappa=kappa[k],
            initial_price=config.initial_price,
            seed=_child_seed(root, k),
            spread_residual_max=float(resid_max[k]),
        )
        for k in range(n_paths)
    ]


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise; ``np.hypot`` rounds differently on some inputs.

    Goes row by row, so that no more than a row of Python floats is alive.
    """
    out = np.empty(x.shape)
    for row, x_row, y_row in zip(np.atleast_2d(out), np.atleast_2d(x), np.atleast_2d(y)):
        row[:] = list(map(math.hypot, x_row.tolist(), y_row.tolist()))
    return out


def _rotations(xi: np.ndarray, kappa: np.ndarray, dt: float, scale: float):
    """The step unitary of :func:`~qcw.wave_dynamics.propagate` for arrays of draws.

    Returns ``(half_k, delta, finite_angle, c, x, p, q)``: ``half_k`` =
    abs(kappa/2) for the levels, delta = hypot(xi, abs(kappa)), whether the
    angle phi = delta*dt/(2*scale) is finite, and the bracket
    [[c - i*x, q - i*p], [-q - i*p, c + i*x]] rounded as ``propagate``
    rounds it (zero signs aside, which no output sees). Where delta = 0 the
    bracket is the identity; ``q`` is 0 for real kappa.
    """
    is_complex = kappa.dtype.kind == "c"
    if is_complex:  # np.hypot rounds as Python's complex abs does
        re, im = kappa.real, kappa.imag
        abs_k, half_k = np.hypot(re, im), np.hypot(0.5 * re, 0.5 * im)
    else:
        abs_k, half_k = np.abs(kappa), np.abs(0.5 * kappa)
    delta = _hypot(xi, abs_k)
    del abs_k
    phi = 0.5 * delta * dt / scale
    s = np.sin(phi)
    idle = delta == 0.0

    def entry(v):  # s * (v / delta), 0 where delta = 0
        e = v / delta
        e *= s
        e[idle] = 0.0
        return e

    x, p = entry(xi), entry(kappa.real)
    q = entry(kappa.imag) if is_complex else np.broadcast_to(0.0, delta.shape)
    return half_k, delta, np.isfinite(phi), np.cos(phi), x, p, q


def _with_phase(kappa: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """kappa * exp(1j*theta) elementwise in Python's complex arithmetic, as one step forms it."""
    exp = cmath.exp
    values = [k * exp(1j * t) for k, t in zip(kappa.ravel().tolist(), theta.ravel().tolist())]
    return np.array(values, dtype=complex).reshape(kappa.shape)


def _simulate_lockstep(
    config: SimConfig, params: ModelParams, root: np.random.SeedSequence, n_paths: int
):
    """:func:`simulate_path` for children 0 .. n_paths-1 of ``root``, over arrays of paths.

    Each path draws from its own sub-streams exactly as the scalar kernel
    does; the draws of one chunk of steps land in (steps, paths) arrays,
    and everything that depends on neither the price nor the state is
    computed once per chunk. Amplitudes are kept as four float arrays and
    every product is written out in CPython's complex order, since numpy's
    complex multiply rounds differently. Returns the (paths, steps) output
    columns and each path's spread residual maximum.
    """
    coupled = config.mode == MODE_IMBALANCE_COUPLED
    collapse = config.post_trade == POST_TRADE_COLLAPSE
    complex_coupling = params.complex_coupling

    def phases(rngs, m):
        return np.stack([rng.uniform(0.0, 2.0 * math.pi, m) for rng in rngs], axis=1)

    rngs = _child_rngs(root, n_paths, _n_streams(collapse, complex_coupling)).T
    rng_elem, rng_trade = rngs[:2]
    if not collapse:
        rng_phase = rngs[2]
    if complex_coupling:
        rng_coupling = rngs[3]

    n = config.n_steps
    s_bid, s_ask, s_trade_arr, imb, xi_arr = (np.empty((n_paths, n)) for _ in range(5))
    at_ask = np.empty((n_paths, n), dtype=bool)
    kappa_arr = np.empty((n_paths, n), dtype=complex if complex_coupling else float)

    sigma, xi0, xi1 = params.sigma, params.xi0, params.xi1
    kappa0, kappa1, c_i = params.kappa0, params.kappa1, config.c_i
    dt, scale = params.dt, params.tau * params.s0
    a, b = config.initial_state.psi_ask, config.initial_state.psi_bid
    ar, ai, br, bi = (np.full(n_paths, v) for v in (a.real, a.imag, b.real, b.imag))
    s_trade = np.full(n_paths, config.initial_price)
    resid_max = np.zeros(n_paths)

    for k0 in range(0, n, _CHUNK_STEPS):
        m = min(_CHUNK_STEPS, n - k0)
        block = np.empty((n_paths, m, 3))
        for rng, out in zip(rng_elem, block):
            rng.standard_normal(out=out)
        dz, nx, nk = block.transpose(2, 1, 0).copy()
        del block
        if complex_coupling:
            coupling_phases = phases(rng_coupling, m)
        xi = xi0 + xi1 * nx
        xi_arr[:, k0 : k0 + m] = xi.T
        if coupled:
            kappa_noise = kappa1 * nk
        else:
            kappa = kappa0 + kappa1 * nk
            if complex_coupling:
                kappa = _with_phase(kappa, coupling_phases)
            kappa_arr[:, k0 : k0 + m] = kappa.T
            rotations = _rotations(xi, kappa, dt, scale)
            del kappa
        half_xi = 0.5 * xi
        del nx, nk, xi
        uniforms = np.stack([rng.random(m) for rng in rng_trade], axis=1)
        if not collapse:
            thetas = phases(rng_phase, m)
            scramble_cos, scramble_sin = np.cos(thetas), np.sin(thetas)
            del thetas

        for j in range(m):
            step = k0 + j
            if coupled:
                i_now = (ar * ar + ai * ai) - (br * br + bi * bi)
                kappa_j = c_i * np.clip(i_now, -1.0, 1.0) + kappa_noise[j]
                if complex_coupling:
                    kappa_j = _with_phase(kappa_j, coupling_phases[j])
                kappa_arr[:, step] = kappa_j
                half_k, delta, finite_angle, c, x, p, q = _rotations(
                    xi_arr[:, step], kappa_j, dt, scale
                )
            else:
                half_k, delta, finite_angle, c, x, p, q = (r[j] for r in rotations)

            # levels: the eigenvalues of [[common + xi/2, kappa/2], [., common - xi/2]]
            common = s_trade + s_trade * sigma * dz[j]
            s11 = common + half_xi[j]
            s22 = common - half_xi[j]
            half_delta = _hypot(0.5 * (s11 - s22), half_k)
            s_mid = 0.5 * (s11 + s22)
            ask = s_mid + half_delta
            bid = s_mid - half_delta

            # global phase exp(-1j*s_mid*dt/scale), then the bracket
            phase = s_mid * dt / scale
            gc, gs = np.cos(-phase), np.sin(-phase)
            ur = (c * ar + x * ai) + (q * br + p * bi)
            ui = (c * ai - x * ar) + (q * bi - p * br)
            vr = (p * ai - q * ar) + (c * br - x * bi)
            vi = (c * bi + x * br) - (q * ai + p * ar)
            ar, ai = gc * ur - gs * ui, gc * ui + gs * ur
            br, bi = gc * vr - gs * vi, gc * vi + gs * vr
            # propagate returns before renormalizing where delta = 0
            norm = ar * ar + ai * ai + br * br + bi * bi
            drift = (np.abs(norm - 1.0) > RENORM_TRIGGER) & (delta != 0.0)
            if drift.any():
                r = np.where(drift, 1.0 / np.sqrt(norm), 1.0)
                ar, ai, br, bi = ar * r, ai * r, br * r, bi * r

            p_ask = ar * ar + ai * ai
            i_k = np.clip(p_ask - (br * br + bi * bi), -1.0, 1.0)
            side = uniforms[j] < p_ask
            price = np.where(side, ask, bid)
            ok = np.isfinite(ask) & np.isfinite(bid) & np.isfinite(phase) & finite_angle
            if not (ok & (price > 0.0)).all():
                _abort(step, ask, bid, phase, finite_angle, price)
            if collapse:
                ar = side.astype(float)
                br = 1.0 - ar
                ai = bi = np.zeros(n_paths)
            else:
                ar, ai = (
                    ar * scramble_cos[j] - ai * scramble_sin[j],
                    ar * scramble_sin[j] + ai * scramble_cos[j],
                )

            s_bid[:, step] = bid
            s_ask[:, step] = ask
            s_trade_arr[:, step] = price
            at_ask[:, step] = side
            imb[:, step] = i_k
            np.maximum(resid_max, np.abs(2.0 * half_delta - delta), out=resid_max)
            s_trade = price

    return (s_bid, s_ask, s_trade_arr, at_ask, imb, xi_arr, kappa_arr), resid_max


def _abort(step: int, ask, bid, phase, finite_angle, price) -> None:
    """Raise the abort of the lowest path index that fails a check at ``step``.

    The checks of one path run in the scalar kernel's order: finite levels,
    finite propagation phase, finite rotation angle, positive trade price.
    """
    for k in range(price.size):
        _check_finite(step, ask[k], bid[k], phase[k], finite_angle[k], path=k)
        if not price[k] > 0.0:
            raise PricePositivityError(step, float(price[k]), path=k)


def _check_finite(step: int, ask, bid, phase, finite_angle, path: int | None = None) -> None:
    """Raise :class:`ValidationError` for the first of the levels, the
    propagation phase and the rotation angle of one step that is not finite."""
    where = f"step {step}" if path is None else f"step {step} of path {path}"
    if not (math.isfinite(ask) and math.isfinite(bid)):
        raise ValidationError(f"price levels are not finite at {where}")
    if not math.isfinite(phase):
        raise ValidationError(f"propagation phase s_mid*dt/(tau*s0) is not finite at {where}")
    if not finite_angle:
        raise ValidationError(f"rotation angle delta*dt/(2*tau*s0) is not finite at {where}")


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
