"""Trade engine: level selection, path and ensemble simulation, imbalance stats.

One step is one trade opportunity of duration dt: draw fresh operator
elements around the last trade price, decompose into bid/ask levels,
propagate the amplitude pair over the step, execute at one level according
to the execution probabilities, then apply the post-trade rule (relative
phase scramble, or collapse onto the executed level).

Two modes: in ``balanced`` mode the coupling kappa is drawn around its
configured mean; in ``imbalance-coupled`` mode its mean is replaced by
c_i * I(t) before drawing, which ties coupling strength to the execution
imbalance. In a crash, a path that starts far from balance and mixes
slowly (a tiny rotation angle delta*dt/(2*tau*s0) per step) keeps
executing on one side whether or not it is coupled; the coupling widens
the spread and so sets the size of the move.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import PricePositivityError, ValidationError, is_finite_number
from .spread_stats import Histogram
from .stochastic_model import ModelParams
from .wave_dynamics import (
    _NORM2_HI, _NORM2_LO, RENORM_TRIGGER, StateVector, _norm2, _norm2_array,
)
# ``propagate`` is not called here; perfbench's layer tracer wraps it at this name.
from .wave_dynamics import propagate  # noqa: F401

__all__ = [
    "MODE_BALANCED",
    "MODE_IMBALANCE_COUPLED",
    "POST_TRADE_SCRAMBLE",
    "POST_TRADE_COLLAPSE",
    "SimConfig",
    "PathSeries",
    "simulate_path",
    "simulate_ensemble",
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
#: Elements (steps x paths) of one lockstep chunk, which takes
#: max(1, min(_CHUNK_STEPS, _CHUNK_ELEMENTS // n_paths)) steps: a full
#: chunk of up to 256 paths, fewer steps beyond, so that its working memory
#: does not grow with the path count: 118-158 B a path-step by mode and
#: post-trade rule, about 165 MB (README, "How an ensemble runs"). Outputs
#: do not depend on it.
_CHUNK_ELEMENTS = 2**20


@dataclass(frozen=True)
class SimConfig:
    """Run configuration for a single simulated path.

    ``seed`` may be an integer >= 0 or a numpy SeedSequence; either way the
    run is fully deterministic. Independent sub-streams are derived from it
    (element draws, trade selection and phase scrambles) so that disabling
    one consumer cannot shift the draws seen by another.
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
        if not is_finite_number(self.initial_price) or self.initial_price <= 0:
            raise ValidationError("initial_price must be a finite number > 0")
        object.__setattr__(self, "initial_price", float(self.initial_price))
        self.initial_state.require_normalized()
        if self.mode not in (MODE_BALANCED, MODE_IMBALANCE_COUPLED):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.post_trade not in (POST_TRADE_SCRAMBLE, POST_TRADE_COLLAPSE):
            raise ValidationError(f"unknown post_trade rule {self.post_trade!r}")
        if not is_finite_number(self.c_i):
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
    recorded spread to sqrt(xi^2 + kappa^2) can be re-checked exactly.
    ``spread_residual_max`` is the largest absolute deviation of that
    identity observed while the path was generated. ``at_ask`` marks the
    trades executed at the ask.
    """

    t: np.ndarray
    s_bid: np.ndarray
    s_ask: np.ndarray
    s_trade: np.ndarray
    at_ask: np.ndarray
    imbalance: np.ndarray
    xi: np.ndarray
    kappa: np.ndarray
    initial_price: float
    seed: int | np.random.SeedSequence
    spread_residual_max: float

    def __len__(self) -> int:
        return int(self.t.size)

    def bid_fraction(self) -> float:
        return float(np.mean(~self.at_ask))

    def net_log_return(self) -> float:
        return float(math.log(float(self.s_trade[-1]) / self.initial_price))


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


def _n_streams(collapse: bool) -> int:
    """Sub-streams a path uses: 0 elements, 1 trades, 2 phase scrambles (not under collapse)."""
    return 2 if collapse else 3


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
    """Generate one coordinated bid/ask/trade path: the blocks of
    :func:`_path_chunks`, collected. The same (config, params) yield an
    identical series.

    Raises :class:`ValidationError` if a level or the rotation angle is not
    finite, and :class:`PricePositivityError` if a trade price reaches zero
    or below (the arithmetic price formulation permits it; aborting keeps
    recorded statistics unbiased). Each names its step.
    """
    return _collect(_path_chunks(config, params), config, [config.seed])[0]


def simulate_ensemble(config: SimConfig, params: ModelParams, n_paths: int) -> list[PathSeries]:
    """Independent paths on disjoint sub-streams derived from the config seed.

    Path k uses the k-th child of the master seed, so the ensemble is
    reproducible as a whole and each member individually; merging statistics
    across members is order-independent. Every path is bitwise the
    :func:`simulate_path` run on its child seed, but all paths advance in
    lockstep, one numpy operation over the path axis per step.

    A path that aborts stops the whole ensemble. The abort reported is the
    first in step order, the lowest path index on a tie, and its message
    names that step and path: :class:`ValidationError` for a level or
    rotation angle that is not finite, :class:`PricePositivityError` (with
    ``step`` and ``path`` set) for a trade price at or below zero.
    """
    if isinstance(n_paths, bool) or not isinstance(n_paths, int) or n_paths < 1:
        raise ValidationError("n_paths must be an integer >= 1")
    root = _seed_sequence(config.seed)
    seeds = [_child_seed(root, k) for k in range(n_paths)]
    return _collect(_lockstep_chunks(config, params, n_paths), config, seeds)


def _collect(chunks, config: SimConfig, seeds: list) -> list[PathSeries]:
    """The :class:`PathSeries` of each seed's path from the ``(k0, block)``
    chunks of either kernel, whose rows have shape (steps,) or (steps, paths)."""
    n, n_paths = config.n_steps, len(seeds)
    # the block's columns, in the order of the PathSeries fields after t
    columns = [np.empty((n_paths, n), dtype=bool if name == "at_ask" else float)
               for name in _Block._fields[:7]]
    resid_max = np.zeros(n_paths)
    for k0, block in chunks:
        span = slice(k0, k0 + len(block.xi))
        for column, rows in zip(columns, block):
            column[:, span] = rows.T
        np.maximum(resid_max, _residual_max(block), out=resid_max)
        del block, rows  # free the chunk before the kernel draws the next

    t = np.arange(n, dtype=np.int64)
    return [
        PathSeries(t, *(column[k] for column in columns), initial_price=config.initial_price,
                   seed=seed, spread_residual_max=float(resid_max[k]))
        for k, seed in enumerate(seeds)
    ]


def _residual_max(block) -> np.ndarray:
    """Per path, the largest |2*half_delta - delta| of a block: ``spread_residual_max``."""
    with np.errstate(all="ignore"):
        return np.abs(2.0 * block.half_delta - block.delta).max(axis=0)


def _path_chunks(config: SimConfig, params: ModelParams):
    """One path on plain floats: ``(k0, block)`` for each chunk of steps k0,
    k0 + 1, ..., its :class:`_Block` rows of shape (steps,), as
    :func:`_lockstep_chunks` yields them for an array of paths.

    A step runs over the draws and rotations of :func:`_chunk` and keeps
    what the next step reads: the mid, the half-spread, the side and the
    imbalance, and in ``imbalance-coupled`` mode kappa, which follows the
    state, delta, the angle's finiteness and the rotation, rounded as
    :func:`_rotations` rounds them. The rest goes to :func:`_settle` once per
    chunk, as in :func:`_lockstep_chunk`. The amplitudes are stepped in the
    frame of the mid: the global phase of
    :func:`~qcw.wave_dynamics.propagate`, which no probability sees, is not
    computed. The mid and the half-difference come from the halves of the
    diagonal: bitwise :func:`~qcw.operator_core.eigenprices`' wherever the
    halves are exact (|s11|, |s22| >= 2^-1021 or 0).
    """
    coupled = config.mode == MODE_IMBALANCE_COUPLED
    collapse = config.post_trade == POST_TRADE_COLLAPSE
    rngs = _child_rngs(_seed_sequence(config.seed), _n_streams(collapse))

    n, sigma, c_i = config.n_steps, params.sigma, config.c_i
    dt, scale = params.dt, params.tau * params.s0
    isfinite, sqrt, cos, sin = math.isfinite, math.sqrt, math.cos, math.sin
    psi_ask, psi_bid = config.initial_state.psi_ask, config.initial_state.psi_bid
    ar, ai, br, bi = psi_ask.real, psi_ask.imag, psi_bid.real, psi_bid.imag
    s_trade = config.initial_price
    unused = repeat(None)  # stands in for a column that a mode does not use

    def column(values):  # the Python values of a chunk's column, made one step at a time
        return unused if values is None else array("d", values.tobytes())

    for k0 in range(0, n, _CHUNK_STEPS):
        m = min(_CHUNK_STEPS, n - k0)
        with np.errstate(all="ignore"):
            dz, xi, kappa, rotations, uniforms, scramble = _chunk(rngs, m, params, coupled, collapse)
            if coupled:  # kappa is the noise; the coupling follows the state
                noise, rotations = kappa, [None] * 6
                kappa, deltas, finite_angles = ([0.0] * m for _ in range(3))
            else:
                noise, (deltas, finite_angles) = None, rotations[1:3]
            mids, half_deltas, sides, imbs = ([0.0] * m for _ in range(4))
            steps = (dz, 0.5 * xi, uniforms, rotations[0], *rotations[3:],
                     *(scramble or [None] * 2), xi if coupled else None, noise)

            for j, (dz_j, half_xi, u, k2, c, x, p, sc, ss, xi_j,
                    k_noise) in enumerate(zip(*map(column, steps))):
                if coupled:  # the rotation as _rotations rounds it; the identity where delta = 0
                    i_now = (ar * ar + ai * ai) - (br * br + bi * bi)
                    kappa_j = kappa[j] = c_i * min(1.0, max(-1.0, i_now)) + k_noise
                    k2 = 0.5 * kappa_j
                    k2 *= k2
                    delta = sqrt(xi_j * xi_j + kappa_j * kappa_j)
                    if not _NORM2_LO <= delta < _NORM2_HI:
                        delta = _norm2(xi_j, abs(kappa_j))
                    deltas[j] = delta
                    phi = 0.5 * delta * dt / scale
                    finite_angle = finite_angles[j] = isfinite(phi)
                    c, x, p = 1.0, 0.0, 0.0
                    if delta != 0.0 and finite_angle:  # an infinite angle aborts in the settle
                        s = sin(phi)
                        c = cos(phi)
                        x = xi_j / delta * s
                        p = kappa_j / delta * s

                # levels: the eigenvalues of [[common + xi/2, kappa/2], [., common - xi/2]],
                # from the halves h11, h22 of the diagonal
                common = s_trade + s_trade * sigma * dz_j
                h11 = 0.5 * (common + half_xi)
                h22 = 0.5 * (common - half_xi)
                d = h11 - h22
                half_delta = sqrt(d * d + k2)
                if not _NORM2_LO <= half_delta < _NORM2_HI:
                    half_delta = _norm2(d, abs(0.5 * kappa[j]))
                s_mid = mids[j] = h11 + h22
                half_deltas[j] = half_delta

                # the bracket in propagate's order, in the frame of the mid: the global
                # phase exp(-1j*s_mid*dt/scale) is left out, since no probability sees it
                # (the coupling products with the zero imaginary part of kappa only add +-0)
                ar, ai, br, bi = ((c * ar + x * ai) + p * bi, (c * ai - x * ar) - p * br,
                                  p * ai + (c * br - x * bi), (c * bi + x * br) - p * ar)
                p_ask = ar * ar + ai * ai  # the norm's first partial sum
                norm = p_ask + br * br + bi * bi
                if abs(norm - 1.0) > RENORM_TRIGGER and deltas[j] != 0.0:
                    r = 1.0 / sqrt(norm)
                    ar, ai, br, bi = ar * r, ai * r, br * r, bi * r
                    p_ask = ar * ar + ai * ai

                side = sides[j] = u < p_ask
                imbs[j] = p_ask - (br * br + bi * bi)
                if collapse:
                    ar, ai, br, bi = (1.0, 0.0, 0.0, 0.0) if side else (0.0, 0.0, 1.0, 0.0)
                else:
                    ar, ai = ar * sc - ai * ss, ar * ss + ai * sc
                s_trade = s_mid + half_delta if side else s_mid - half_delta

            mids, half_deltas, imbs, kappa, deltas = (
                np.asarray(v, dtype=float) for v in (mids, half_deltas, imbs, kappa, deltas))
            sides, finite_angles = (np.asarray(v, dtype=bool) for v in (sides, finite_angles))
            bids, asks = mids - half_deltas, mids + half_deltas
            prices = _settle(k0, bids, asks, sides, finite_angles, imbs)
        yield k0, _Block(bids, asks, prices, sides, imbs, xi, kappa, half_deltas, deltas)


class _Block(NamedTuple):
    """The rows of one chunk, each a (steps, paths) array, or (steps,) from
    :func:`_path_chunks`: the columns of :class:`PathSeries` and the two
    spreads of its residual."""

    s_bid: np.ndarray
    s_ask: np.ndarray
    s_trade: np.ndarray
    at_ask: np.ndarray
    imbalance: np.ndarray
    xi: np.ndarray
    kappa: np.ndarray
    half_delta: np.ndarray
    delta: np.ndarray


def _rotations(xi: np.ndarray, kappa: np.ndarray, dt: float, scale: float):
    """The step unitary of :func:`~qcw.wave_dynamics.propagate` for arrays of draws.

    Returns ``(half_k2, delta, finite_angle, c, x, p)``: ``half_k2`` =
    (kappa/2)^2 for the half-spread, delta = sqrt(xi^2 + kappa^2) rounded as
    ``propagate`` and the levels round it (:func:`_norm2_array`), whether
    the angle phi = delta*dt/(2*scale) is finite, and the bracket
    [[c - i*x, -i*p], [-i*p, c + i*x]] rounded as ``propagate`` rounds it
    (zero signs aside, which no output sees). Where delta = 0 the bracket is
    the identity.
    """
    delta = _norm2_array(xi, np.abs(kappa))
    phi = 0.5 * delta * dt / scale
    s = np.sin(phi)
    idle = None if delta.min() > 0.0 else delta == 0.0  # a norm: >= 0 or NaN

    def entry(v):  # s * (v / delta), 0 where delta = 0
        e = v / delta
        e *= s
        if idle is not None:
            e[idle] = 0.0
        return e

    return np.square(0.5 * kappa), delta, np.isfinite(phi), np.cos(phi), entry(xi), entry(kappa)


def _chunk(rngs: np.ndarray, m: int, params: ModelParams, coupled: bool, collapse: bool):
    """The sub-stream draws of ``m`` steps, and what follows from them alone.

    ``rngs`` has shape (streams, *paths). Each path draws as one draw per
    step would, and every array returned has shape (m, *paths): ``(dz, xi,
    kappa, rotations, uniforms, scramble)``. In ``imbalance-coupled`` mode
    ``kappa`` is the noise kappa1*nk and ``rotations`` None; otherwise they
    are the coupling and its :func:`_rotations`. ``scramble`` is the cos/sin
    of the phase scrambles (None under collapse).

    Each path's sub-stream fills its own contiguous row of one buffer
    (``out=``), and one copy moves the paths to the last axis. A scramble
    angle is ``random() * 2*pi``: numpy's ``uniform(0, 2*pi)`` is
    ``0 + 2*pi * random()``, the same bits from the same stream position.
    """
    paths = rngs.shape[1:]
    streams = rngs.reshape(len(rngs), -1)

    def draw(stream, sample, *shape):  # each path in place, then the paths on the last axis
        out = np.empty((streams.shape[1], *shape))
        for rng, row in zip(streams[stream], out):
            sample(rng, out=row)
        return np.ascontiguousarray(np.moveaxis(out, 0, -1)).reshape(shape + paths)

    dz, nx, nk = np.moveaxis(draw(0, Generator.standard_normal, m, 3), 1, 0)
    xi = params.xi0 + params.xi1 * nx
    if coupled:
        kappa, rotations = params.kappa1 * nk, None
    else:
        kappa = params.kappa0 + params.kappa1 * nk
        rotations = _rotations(xi, kappa, params.dt, params.tau * params.s0)
    uniforms = draw(1, Generator.random, m)
    scramble = None
    if not collapse:
        thetas = draw(2, Generator.random, m)
        thetas *= 2.0 * math.pi
        scramble = (np.cos(thetas), np.sin(thetas))
    return dz, xi, kappa, rotations, uniforms, scramble


def _lockstep_chunks(config: SimConfig, params: ModelParams, n_paths: int):
    """:func:`simulate_path` for children 0 .. n_paths-1 of the config seed, over arrays of paths.

    Yields ``(k0, block)`` for each chunk of steps k0, k0 + 1, ...: the
    :class:`_Block` of (steps, paths) rows from :func:`_lockstep_chunk`.
    Between chunks only the amplitudes and the price are kept, so a consumer
    that drops each block before asking for the next holds one chunk at a
    time.
    """
    collapse = config.post_trade == POST_TRADE_COLLAPSE
    rngs = _child_rngs(_seed_sequence(config.seed), n_paths, _n_streams(collapse)).T
    rows = max(1, min(_CHUNK_STEPS, _CHUNK_ELEMENTS // n_paths))
    a, b = config.initial_state.psi_ask, config.initial_state.psi_bid
    values = (a.real, a.imag, b.real, b.imag, config.initial_price)
    state = tuple(np.full(n_paths, v) for v in values)
    n = config.n_steps
    for k0 in range(0, n, rows):
        block, state = _lockstep_chunk(config, params, rngs, k0, min(rows, n - k0), state)
        yield k0, block
        del block  # so that the next chunk's draws do not meet this one


def _lockstep_chunk(config: SimConfig, params: ModelParams, rngs: np.ndarray, k0: int, m: int,
                    state: tuple):
    """Steps k0 .. k0+m-1 of every path: their :class:`_Block`, and the state after them.

    ``state`` is ``(ar, ai, br, bi, s_trade)``, arrays over the paths: the
    amplitudes as four float arrays, since numpy's complex multiply rounds
    differently from CPython's and every product is written out in CPython's
    order, and the last trade price. ``rngs`` has shape (streams, paths); the
    draws and rotations come from :func:`_chunk`.

    A step computes what the next step reads (the state, the price, and in
    ``imbalance-coupled`` mode the coupling) and stores its rows, the levels
    formed from the halves of the diagonal as :func:`simulate_path` forms
    them. The amplitude pair is propagated in the frame of the mid: the
    global phase exp(-1j*s_mid*dt/scale) of
    :func:`~qcw.wave_dynamics.propagate` is not computed, since no
    probability sees it. What no later step reads goes to :func:`_settle`
    once per chunk. Steps after an abort in the same chunk run on whatever
    values it left, and nothing of them is kept.

    A step makes few numpy calls over the paths, each rounding as
    :func:`simulate_path` does, and writes every kept row through ``out=``.
    The half-spread is sqrt(d*d + k^2), k^2 from :func:`_rotations`;
    :func:`_norm2_array` scales it only when the row's least or largest
    value leaves that function's window. The four squares of the amplitudes
    serve the norm, p_ask and the imbalance, and one maximum of |norm - 1|
    decides whether any path may need renormalizing.
    """
    coupled = config.mode == MODE_IMBALANCE_COUPLED
    collapse = config.post_trade == POST_TRADE_COLLAPSE
    sigma, c_i = params.sigma, config.c_i
    dt, scale = params.dt, params.tau * params.s0
    ar, ai, br, bi, s_trade = state
    n_paths = s_trade.size

    with np.errstate(all="ignore"):
        dz, xi, kappa, rotations, uniforms, scramble = _chunk(rngs, m, params, coupled, collapse)
        bids, asks, imbs, half_deltas = (np.empty((m, n_paths)) for _ in range(4))
        sides = np.empty((m, n_paths), dtype=bool)
        if coupled:  # kappa is the noise; the coupling follows the state
            noise = kappa
            kappa, deltas = np.empty((m, n_paths)), np.empty((m, n_paths))
            finite_angles = np.empty((m, n_paths), dtype=bool)
        else:
            deltas, finite_angles = rotations[1:3]
        half_xi = 0.5 * xi

        for j in range(m):
            if coupled:
                i_now = (ar * ar + ai * ai) - (br * br + bi * bi)
                np.maximum(i_now, -1.0, out=i_now)  # the clip to [-1, 1]
                np.minimum(i_now, 1.0, out=i_now)
                i_now *= c_i
                np.add(i_now, noise[j], out=kappa[j])
                half_k2, delta, finite_angle, c, x, p = _rotations(xi[j], kappa[j], dt, scale)
                deltas[j] = delta
                finite_angles[j] = finite_angle
            else:
                half_k2, delta, _, c, x, p = (r[j] for r in rotations)

            # levels: the eigenvalues of [[common + xi/2, kappa/2], [., common - xi/2]],
            # from the halves h11, h22 of the diagonal
            common = s_trade * sigma
            common *= dz[j]
            common += s_trade
            h11 = common + half_xi[j]
            h11 *= 0.5
            h22 = common
            h22 -= half_xi[j]
            h22 *= 0.5
            # the half-spread, as _norm2_array rounds it when no result needs scaling
            half_delta = np.subtract(h11, h22, out=half_deltas[j])
            half_delta *= half_delta
            half_delta += half_k2
            np.sqrt(half_delta, out=half_delta)
            if not (half_delta.min() >= _NORM2_LO and half_delta.max() < _NORM2_HI):
                half_delta[:] = _norm2_array(h11 - h22, np.abs(0.5 * kappa[j]))
            s_mid = np.add(h11, h22, out=asks[j])  # in the ask's row until the bid is formed
            bid = np.subtract(s_mid, half_delta, out=bids[j])
            ask = np.add(s_mid, half_delta, out=s_mid)

            # the bracket, in the frame of the mid
            ar, ai, br, bi = ((c * ar + x * ai) + p * bi, (c * ai - x * ar) - p * br,
                              p * ai + (c * br - x * bi), (c * bi + x * br) - p * ar)
            ar2, ai2, br2, bi2 = ar * ar, ai * ai, br * br, bi * bi
            p_ask = ar2 + ai2
            norm = p_ask + br2
            norm += bi2
            deviation = norm - 1.0
            np.abs(deviation, out=deviation)
            # `not <=` sends a NaN maximum on to the mask, which reads NaN as no drift
            if not deviation.max() <= RENORM_TRIGGER:
                # propagate returns before renormalizing where delta = 0
                drift = (deviation > RENORM_TRIGGER) & (delta != 0.0)
                if drift.any():
                    r = np.where(drift, 1.0 / np.sqrt(norm), 1.0)
                    ar, ai, br, bi = ar * r, ai * r, br * r, bi * r
                    ar2, ai2, br2, bi2 = ar * ar, ai * ai, br * br, bi * bi
                    p_ask = ar2 + ai2

            side = np.less(uniforms[j], p_ask, out=sides[j])
            s_trade = np.where(side, ask, bid)
            br2 += bi2  # p_bid
            np.subtract(p_ask, br2, out=imbs[j])
            if collapse:
                ar = side.astype(float)
                br = 1.0 - ar
                ai = bi = np.zeros(n_paths)
            else:
                sc, ss = (r[j] for r in scramble)
                ar, ai = ar * sc - ai * ss, ar * ss + ai * sc

        prices = _settle(k0, bids, asks, sides, finite_angles, imbs)
    block = _Block(bids, asks, prices, sides, imbs, xi, kappa, half_deltas, deltas)
    return block, (ar, ai, br, bi, s_trade)


def _settle(k0: int, bids, asks, sides, finite_angles, imbs) -> np.ndarray:
    """What no later step reads, once per chunk of rows (steps,) or (steps,
    paths): the trade prices, returned, and the imbalance clip, in place. The
    first failing step, at its lowest failing path, raises the first check it
    fails of finite levels, finite angle and positive price; the message
    names the path for an array of paths."""
    prices = np.where(sides, asks, bids)
    ok = np.isfinite(asks) & np.isfinite(bids)
    ok &= finite_angles
    ok &= prices > 0.0
    if not ok.all():
        at = np.unravel_index(ok.argmin(), ok.shape)  # row-major: the first step, then path
        step, path = k0 + int(at[0]), (int(at[1]) if ok.ndim > 1 else None)
        where = f"step {step}" if path is None else f"step {step} of path {path}"
        if not (np.isfinite(asks[at]) and np.isfinite(bids[at])):
            raise ValidationError(f"price levels are not finite at {where}")
        if not finite_angles[at]:
            raise ValidationError(f"rotation angle delta*dt/(2*tau*s0) is not finite at {where}")
        raise PricePositivityError(step, float(prices[at]), path=path)
    np.clip(imbs, -1.0, 1.0, out=imbs)
    return prices


def q_of_i(ensemble: list[PathSeries], bins: int = 41) -> Histogram:
    """Normalized histogram Q(I) of all recorded imbalances over [-1, 1]."""
    if not ensemble:
        raise ValidationError("cannot build Q(I) from an empty ensemble")
    return _pooled_q_of_i(np.concatenate([p.imbalance for p in ensemble]), bins)


def imbalance_summary(ensemble: list[PathSeries]) -> dict:
    """Moments of the pooled imbalance samples plus the negative-side mass."""
    if not ensemble:
        raise ValidationError("cannot summarize an empty ensemble")
    return _pooled_summary(np.concatenate([p.imbalance for p in ensemble]))


def _pooled_q_of_i(values: np.ndarray, bins: int) -> Histogram:
    """:func:`q_of_i` of the pooled imbalance samples ``values``."""
    return Histogram.from_samples(values, bins=bins, value_range=(-1.0, 1.0))


def _pooled_summary(values: np.ndarray) -> dict:
    """:func:`imbalance_summary` of the pooled imbalance samples ``values``,
    whose order fixes the rounding of the moments.

    The samples are centered on their rounded mean and then on the mean of
    what that left, the rounding of the first mean, so a constant sample
    centers to exact zeros: variance 0 and skewness 0.0. The centered values
    are then scaled by the power of two 2^-e that brings the largest into
    [0.5, 1), which is exact and keeps squares and cubes of tiny values from
    underflowing; the skewness does not see it. The cubes are products of
    the squares and the centered values, in place.
    """
    mean = float(values.mean())
    centered = values - mean
    shift = float(centered.mean())
    centered -= shift
    e = int(np.frexp(np.abs(centered).max())[1])
    np.ldexp(centered, -e, out=centered)
    powers = centered * centered
    scaled_variance = float(powers.mean())
    powers *= centered
    skewness = float(powers.mean() / scaled_variance**1.5) if scaled_variance > 0 else 0.0
    variance = math.ldexp(scaled_variance, 2 * e)
    return {
        "n": int(values.size),
        "mean": mean + shift,
        "variance": variance,
        "skewness": skewness,
        "negative_fraction": float(np.mean(values < 0.0)),
    }
