import json
import math
import re
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    centered_by_fsum,
    chunk_draws_by_stacking,
    moments_by_fsum,
    simulate_path_by_steps,
)

import qcw.market_sim
from qcw import (
    ModelParams,
    PricePositivityError,
    SimConfig,
    StateVector,
    ValidationError,
    imbalance_summary,
    q_of_i,
    simulate_ensemble,
    simulate_path,
)
from qcw.cli import _model_params, _sim_config
from qcw.market_sim import (
    _chunk,
    _child_rngs,
    _child_seed,
    _lockstep_chunk,
    _lockstep_chunks,
    _pooled_summary,
    _rotations,
)

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"
PATH_FIELDS = ("t", "s_bid", "s_ask", "s_trade", "at_ask", "imbalance", "xi", "kappa")

# Scenario defaults (illustrative parameter choices, not calibrated values).
# Balanced: moderate per-step rotation so the imbalance mixes quickly.
BALANCED_PARAMS = ModelParams(
    sigma=0.001, xi0=0.0, xi1=0.05, kappa0=0.0, kappa1=0.05, tau=8e-4, s0=100.0, dt=1.0
)
# Crash: coupling dominated by the imbalance (c_i = 10*xi1), tiny rotation
# per step so the initial one-sidedness persists.
CRASH_PARAMS = ModelParams(
    sigma=0.0005, xi0=0.0, xi1=0.005, kappa0=0.0, kappa1=0.002, tau=1.0, s0=100.0, dt=1.0
)
CRASH_COUPLING = 0.05  # = 10 * xi1


def balanced_config(n_steps=2000, seed=0, **overrides):
    kwargs = dict(n_steps=n_steps, initial_price=100.0, seed=seed)
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def crash_config(n_steps=400, seed=0, initial_imbalance=-0.9):
    return SimConfig(
        n_steps=n_steps,
        initial_price=100.0,
        initial_state=StateVector.from_imbalance(initial_imbalance),
        mode="imbalance-coupled",
        c_i=CRASH_COUPLING,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# trade selection
# ---------------------------------------------------------------------------

# kappa = 0 leaves the moduli of the amplitude pair alone (the step unitary
# is diagonal and the phase scramble touches phases only), so the execution
# probability stays at its initial value along the whole path.
NO_TRANSFER_PARAMS = replace(BALANCED_PARAMS, kappa1=0.0)


def test_select_trade_certain_states():
    ask = simulate_path(balanced_config(n_steps=50, seed=1, initial_state=StateVector(1.0, 0.0)),
                        NO_TRANSFER_PARAMS)
    assert np.all(ask.at_ask) and np.array_equal(ask.s_trade, ask.s_ask)
    bid = simulate_path(balanced_config(n_steps=50, seed=1, initial_state=StateVector(0.0, 1.0)),
                        NO_TRANSFER_PARAMS)
    assert not np.any(bid.at_ask) and np.array_equal(bid.s_trade, bid.s_bid)
    assert np.all(bid.s_bid < bid.s_ask)


@pytest.mark.parametrize("p_ask", [0.5, 0.75])
def test_select_trade_frequencies(p_ask):
    state = StateVector(math.sqrt(p_ask), math.sqrt(1.0 - p_ask))
    n = 100_000
    config = balanced_config(n_steps=n, seed=2, initial_state=state)
    path = simulate_path(config, NO_TRANSFER_PARAMS)
    assert np.max(np.abs(path.imbalance - (2.0 * p_ask - 1.0))) < 1e-9
    hits = int(np.sum(path.at_ask))
    assert abs(hits / n - p_ask) < 0.005


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def test_step_count_contract():
    with pytest.raises(ValidationError):
        balanced_config(n_steps=0)
    path = simulate_path(balanced_config(n_steps=1), BALANCED_PARAMS)
    assert len(path) == 1
    assert path.s_bid[0] <= path.s_trade[0] <= path.s_ask[0]


def test_zero_spread_limit_collapses_levels():
    params = ModelParams(
        sigma=0.01, xi0=0.0, xi1=0.0, kappa0=0.0, kappa1=0.0, tau=1.0, s0=100.0, dt=1.0
    )
    path = simulate_path(balanced_config(n_steps=200), params)
    assert np.all(path.s_bid == path.s_trade)
    assert np.all(path.s_ask == path.s_trade)


def test_wiener_limit_reproduces_classical_recursion_bitwise():
    from qcw.market_sim import _child_seed

    sigma = 0.02
    params = ModelParams(
        sigma=sigma, xi0=0.0, xi1=0.0, kappa0=0.0, kappa1=0.0, tau=1.0, s0=100.0, dt=1.0
    )
    seed = 424242
    path = simulate_path(balanced_config(n_steps=3000, seed=seed), params)

    elem_rng = np.random.default_rng(_child_seed(np.random.SeedSequence(seed), 0))
    s = 100.0
    expected = np.empty(3000)
    for k in range(3000):
        dz = float(elem_rng.standard_normal(3)[0])
        s = s + s * sigma * dz
        expected[k] = s
    assert np.array_equal(path.s_trade, expected)


def test_ordering_and_spread_identity_along_path():
    path = simulate_path(balanced_config(n_steps=5000, seed=3), BALANCED_PARAMS)
    assert np.all(path.s_bid <= path.s_trade)
    assert np.all(path.s_trade <= path.s_ask)
    recomputed = np.hypot(path.xi, np.abs(path.kappa))
    assert np.max(np.abs((path.s_ask - path.s_bid) - recomputed)) <= 1e-12 * np.max(path.s_trade)
    assert path.spread_residual_max <= 1e-12 * np.max(path.s_trade)


def test_identical_seed_gives_identical_path():
    a = simulate_path(balanced_config(seed=99), BALANCED_PARAMS)
    b = simulate_path(balanced_config(seed=99), BALANCED_PARAMS)
    for field in PATH_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = simulate_path(balanced_config(seed=100), BALANCED_PARAMS)
    assert not np.array_equal(a.s_trade, c.s_trade)


def test_balanced_imbalance_averages_to_zero():
    path = simulate_path(balanced_config(n_steps=10_000, seed=5), BALANCED_PARAMS)
    assert abs(path.imbalance.mean()) < 0.05


def test_ask_frequency_tracks_mean_ask_probability():
    path = simulate_path(balanced_config(n_steps=20_000, seed=7), BALANCED_PARAMS)
    p_ask = 0.5 * (1.0 + path.imbalance)
    ask_fraction = float(np.mean(path.at_ask))
    # executions are conditionally independent Bernoulli(p_ask(t)) draws
    se = math.sqrt(np.mean(p_ask * (1.0 - p_ask)) / len(path))
    assert abs(ask_fraction - p_ask.mean()) < 3.0 * se


def test_positivity_guard_aborts_with_step_index(monkeypatch):
    params = ModelParams(
        sigma=0.0, xi0=0.0, xi1=2.0, kappa0=0.0, kappa1=0.0, tau=1.0, s0=100.0, dt=1.0
    )
    coupled = dict(mode="imbalance-coupled", c_i=1.0,
                   initial_state=StateVector.from_imbalance(-0.5))
    # (seed, chunk steps, config overrides, aborting step): step 0 of one
    # chunk; in 7-step chunks, inside a later chunk (17 = 2*7 + 3) and on a
    # chunk's last step (853 = 121*7 + 6); in imbalance-coupled mode on a
    # chunk's last step under collapse (468 = 66*7 + 6) and inside the second
    # chunk under phase-scramble (9 = 7 + 2)
    cases = [
        (11, qcw.market_sim._CHUNK_STEPS, {}, 0),
        (35, 7, {}, 17),
        (38, 7, {}, 853),
        (48, 7, dict(coupled, post_trade="collapse"), 468),
        (37, 7, coupled, 9),
    ]
    for seed, chunk_steps, overrides, step in cases:
        config = balanced_config(n_steps=5000, initial_price=0.5, seed=seed, **overrides)
        with pytest.raises(PricePositivityError) as ref:
            simulate_path_by_steps(config, params)
        monkeypatch.setattr(qcw.market_sim, "_CHUNK_STEPS", chunk_steps)
        with pytest.raises(PricePositivityError) as err:
            simulate_path(config, params)
        assert err.value.step == ref.value.step == step
        assert np.float64(err.value.price).tobytes() == np.float64(ref.value.price).tobytes()
        assert err.value.price <= 0.0 and err.value.path is None


def test_collapse_mode_pins_state_to_executed_level():
    config = balanced_config(n_steps=2000, seed=13, post_trade="collapse")
    path = simulate_path(config, BALANCED_PARAMS)
    # after a collapse the next step starts from a pure level state; the
    # recorded imbalance is post-propagation, so it reflects transfer from
    # that pure state and must hug +-1 when per-step rotation is small
    params_slow = ModelParams(
        sigma=0.001, xi0=0.0, xi1=0.05, kappa0=0.0, kappa1=0.05, tau=1.0, s0=100.0, dt=1.0
    )
    slow = simulate_path(config, params_slow)
    assert np.all(np.abs(slow.imbalance[1:]) > 0.9)
    assert path.at_ask.dtype == bool


def test_ensemble_seeds_are_disjoint_and_reproducible():
    ensemble = simulate_ensemble(balanced_config(n_steps=50, seed=21), BALANCED_PARAMS, 8)
    again = simulate_ensemble(balanced_config(n_steps=50, seed=21), BALANCED_PARAMS, 8)
    assert len(ensemble) == 8
    for a, b in zip(ensemble, again):
        assert np.array_equal(a.s_trade, b.s_trade)
    flat = [tuple(p.s_trade[:5]) for p in ensemble]
    assert len(set(flat)) == 8
    with pytest.raises(ValidationError):
        simulate_ensemble(balanced_config(), BALANCED_PARAMS, 0)
    with pytest.raises(ValidationError):
        simulate_ensemble(balanced_config(), BALANCED_PARAMS, True)


# ---------------------------------------------------------------------------
# kernel against the per-step oracle
# ---------------------------------------------------------------------------

def assert_bit_equal(path, ref):
    for field in PATH_FIELDS:
        a, b = getattr(path, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert np.float64(path.spread_residual_max).tobytes() == np.float64(
        ref.spread_residual_max
    ).tobytes()


def shipped(name):
    cfg = json.loads((CONFIGS_DIR / name).read_text())
    return _sim_config(cfg, cfg["seed"]), _model_params(cfg)


def kernel_cases():
    config, params = shipped("simulate_balanced.json")
    crash_config, crash_params = shipped("imbalance_crash.json")
    return {
        "simulate_balanced": (config, params),
        "collapse": (replace(config, n_steps=3000, post_trade="collapse"), params),
        "nonzero_mean": (
            replace(config, n_steps=3000),
            replace(params, xi0=0.02, kappa0=-0.03),
        ),
        # kappa follows the state: the rotation is formed step by step
        "imbalance_crash": (replace(crash_config, n_steps=3000), crash_params),
        # a norm drift of 2.2e-10, within NORM_TOL but above RENORM_TRIGGER:
        # the first rotation renormalizes the state
        "renormalized": (
            replace(config, initial_state=StateVector(0.8, 0.6 * (1.0 + 3e-10))),
            params,
        ),
        # the Wiener limit xi = kappa = 0: delta = 0 at every step, so a norm
        # drift within NORM_TOL but above RENORM_TRIGGER is never renormalized
        "wiener": (
            replace(config, n_steps=3000, initial_state=StateVector(0.8, 0.6 * (1.0 + 1e-10))),
            replace(params, xi1=0.0, kappa1=0.0),
        ),
        # the same limit from just above unit norm: the raw imbalance
        # |psi_ask|^2 - |psi_bid|^2 exceeds 1 at every step and is clipped
        "saturated": (
            replace(config, n_steps=300, initial_state=StateVector(1.0 + 4e-10, 0.0)),
            replace(params, xi1=0.0, kappa1=0.0),
        ),
    }


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_kernel_matches_per_step_oracle(case):
    config, params = kernel_cases()[case]
    assert_bit_equal(simulate_path(config, params), simulate_path_by_steps(config, params))


def ensemble_cases():
    cases = {name: shipped(name) for name in ("imbalance_balanced.json", "imbalance_crash.json")}
    cases.update(kernel_cases())
    return cases


def assert_ensemble_matches_paths(config, params, n_paths):
    """Every path of the lockstep ensemble is bitwise simulate_path on its child seed."""
    ensemble = simulate_ensemble(config, params, n_paths)
    assert len(ensemble) == n_paths
    root = np.random.SeedSequence(config.seed)
    for k, path in enumerate(ensemble):
        assert_bit_equal(path, simulate_path(replace(config, seed=_child_seed(root, k)), params))
    return ensemble


@pytest.mark.parametrize("name", sorted(ensemble_cases()))
def test_ensemble_paths_match_per_step_oracle(name):
    config, params = ensemble_cases()[name]
    ensemble = assert_ensemble_matches_paths(config, params, 8)
    root = np.random.SeedSequence(config.seed)
    for k, path in enumerate(ensemble[:3]):
        ref = simulate_path_by_steps(replace(config, seed=_child_seed(root, k)), params)
        assert_bit_equal(path, ref)


def fuzzed(value, signed=False):
    """``value``, or a value of any magnitude from 1e-300 to 1e300 (of either sign if ``signed``)."""
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    if signed:
        magnitude = st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda v: v[0] * v[1])
    return st.one_of(st.just(value), magnitude)


def outcome(run):
    """What ``run()`` returns, or the abort it raises."""
    try:
        return run()
    except (ValidationError, PricePositivityError) as exc:
        return exc


FUZZ_MODEL = asdict(replace(BALANCED_PARAMS, kappa0=0.01))


# Any parameter of the model or the run may be of any magnitude. Where the
# per-path runs abort, the ensemble raises the first abort in step order, the
# lowest path on a tie; the examples are a rotation angle that overflows at
# step 0 while the levels stay finite, and trade prices below zero on two
# paths at step 11, inside the second 7-step chunk.
@settings(max_examples=100, deadline=None)
@given(
    n_paths=st.integers(1, 8),
    n_steps=st.integers(1, 60),
    mode=st.sampled_from(["balanced", "imbalance-coupled"]),
    post_trade=st.sampled_from(["phase-scramble", "collapse"]),
    seed=st.integers(0, 2**32 - 1),
    chunk_steps=st.sampled_from([1, 7, 4096]),
    model=st.fixed_dictionaries({
        field: fuzzed(value, signed=field in ("xi0", "kappa0"))
        for field, value in FUZZ_MODEL.items()
    }),
    start=st.tuples(fuzzed(100.0), fuzzed(CRASH_COUPLING, signed=True)),
)
@example(n_paths=3, n_steps=5, mode="balanced", post_trade="phase-scramble", seed=1,
         chunk_steps=4096, model=FUZZ_MODEL | {"tau": 1e-300, "dt": 1e300},
         start=(100.0, CRASH_COUPLING))
@example(n_paths=4, n_steps=40, mode="balanced", post_trade="phase-scramble", seed=3,
         chunk_steps=7, model=FUZZ_MODEL | {"sigma": 0.5, "kappa0": 0.0},
         start=(100.0, CRASH_COUPLING))
def test_ensemble_matches_paths_property(n_paths, n_steps, mode, post_trade, seed, chunk_steps,
                                         model, start):
    config = crash_config(n_steps=n_steps, seed=seed, initial_imbalance=-0.5)
    config = replace(config, mode=mode, post_trade=post_trade,
                     initial_price=start[0], c_i=start[1])
    params = outcome(lambda: ModelParams(**model))
    assume(not isinstance(params, ValidationError))  # tau*s0 underflows to 0
    root = np.random.SeedSequence(seed)
    # one-step and ragged last chunks in both kernels; set by hand, since
    # hypothesis runs every example inside one function-scoped monkeypatch
    default = qcw.market_sim._CHUNK_STEPS
    qcw.market_sim._CHUNK_STEPS = chunk_steps
    try:
        paths = [outcome(lambda k=k: simulate_path(replace(config, seed=_child_seed(root, k)), params))
                 for k in range(n_paths)]
        ensemble = outcome(lambda: simulate_ensemble(config, params, n_paths))
    finally:
        qcw.market_sim._CHUNK_STEPS = default
    aborts = [(int(re.search(r"at step (\d+)$", str(exc))[1]), k, exc)
              for k, exc in enumerate(paths) if isinstance(exc, Exception)]
    if aborts:
        step, k, exc = min(aborts, key=lambda abort: abort[:2])
        assert type(ensemble) is type(exc) and str(ensemble) == f"{exc} of path {k}"
    else:
        for path, ref in zip(ensemble, paths, strict=True):
            assert_bit_equal(path, ref)


def test_kernel_output_does_not_depend_on_chunk_size(monkeypatch):
    cases = kernel_cases()
    paths = {case: simulate_path(*args) for case, args in cases.items()}
    ensembles = {
        name: simulate_ensemble(*shipped(name), 4)
        for name in ("imbalance_balanced.json", "imbalance_crash.json")
    }
    monkeypatch.setattr(qcw.market_sim, "_CHUNK_STEPS", 7)
    for case, args in cases.items():
        assert_bit_equal(simulate_path(*args), paths[case])
    # 7-step chunks, then an element budget below the path count: one step a chunk
    for budget in (qcw.market_sim._CHUNK_ELEMENTS, 3):
        monkeypatch.setattr(qcw.market_sim, "_CHUNK_ELEMENTS", budget)
        for name, ensemble in ensembles.items():
            for path, ref_path in zip(simulate_ensemble(*shipped(name), 4), ensemble):
                assert_bit_equal(path, ref_path)


@pytest.mark.parametrize("name", ["imbalance_balanced.json", "imbalance_crash.json"])
def test_lockstep_chunks_hold_one_chunk_at_a_time(name, monkeypatch):
    # 1000 paths in 100-step chunks: a consumer that drops each block peaks
    # at one chunk's working memory, however many chunks the run takes
    monkeypatch.setattr(qcw.market_sim, "_CHUNK_ELEMENTS", 1000 * 100)
    config, params = shipped(name)

    def peak(n_chunks):
        tracemalloc.start()
        try:
            for _, block in _lockstep_chunks(replace(config, n_steps=100 * n_chunks), params, 1000):
                del block
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(5) <= 1.05 * peak(1)


def test_kernel_rejects_non_finite_propagation_phase():
    # finite levels near 1e300, whose global phase s_mid*dt/(tau*s0) would
    # overflow: neither kernel computes it, and both run to the end as the
    # per-step reference does
    params = replace(BALANCED_PARAMS, tau=1e-9, s0=1.0)
    config = balanced_config(n_steps=10, initial_price=1e300)
    assert 1e300 * params.dt / (params.tau * params.s0) == math.inf
    assert_bit_equal(simulate_path(config, params), simulate_path_by_steps(config, params))
    root = np.random.SeedSequence(config.seed)
    for k, path in enumerate(simulate_ensemble(config, params, 3)):
        ref = simulate_path_by_steps(replace(config, seed=_child_seed(root, k)), params)
        assert_bit_equal(path, ref)


def test_kernel_rejects_non_finite_rotation_angle():
    # delta ~ 1e300 keeps the levels finite, but delta*dt/(2*tau*s0) overflows
    params = replace(BALANCED_PARAMS, xi0=1e300, tau=1e-12, s0=1.0)
    config = balanced_config(n_steps=10)
    with pytest.raises(ValidationError, match="rotation angle .* at step 0$"):
        simulate_path(config, params)
    with pytest.raises(ValidationError, match="rotation angle .* at step 0 of path 0$"):
        simulate_ensemble(config, params, 3)


@pytest.mark.parametrize("post_trade", ["phase-scramble", "collapse"])
@pytest.mark.parametrize("mode", ["balanced", "imbalance-coupled"])
def test_kernels_take_the_mid_of_the_halves_past_float_range(mode, post_trade):
    # s11 + s22 passes float range at every step, though the levels do not
    # (tiny sigma): both kernels take the mid as eigenprices does and run to
    # the end
    params = replace(BALANCED_PARAMS, sigma=1e-4, tau=1.0, kappa0=0.01)
    config = replace(crash_config(n_steps=200, seed=5, initial_imbalance=-0.5),
                     initial_price=1.7e308, mode=mode, post_trade=post_trade)
    path = simulate_path(config, params)
    assert np.all(np.isfinite(path.s_ask)) and np.all(path.s_trade > 9e307)
    assert_bit_equal(path, simulate_path_by_steps(config, params))
    root = np.random.SeedSequence(config.seed)
    for k, path in enumerate(simulate_ensemble(config, params, 4)):
        ref = simulate_path_by_steps(replace(config, seed=_child_seed(root, k)), params)
        assert_bit_equal(path, ref)


@pytest.mark.parametrize("scale", [1e-300, 1e300])
@pytest.mark.parametrize("post_trade", ["phase-scramble", "collapse"])
@pytest.mark.parametrize("mode", ["balanced", "imbalance-coupled"])
def test_kernels_match_per_step_oracle_at_extreme_price_scales(mode, post_trade, scale):
    # every price-valued quantity scaled together: the price, the element
    # means and scales, the coupling c_i and s0, so the rotation angle keeps
    # its size while the squares of the spread's parts under- or overflow,
    # and the halves of the diagonal stay exact
    params = replace(BALANCED_PARAMS, xi0=0.02 * scale, xi1=0.05 * scale,
                     kappa0=-0.03 * scale, kappa1=0.05 * scale, s0=100.0 * scale)
    config = replace(crash_config(n_steps=300, seed=7, initial_imbalance=-0.5),
                     initial_price=100.0 * scale, c_i=CRASH_COUPLING * scale,
                     mode=mode, post_trade=post_trade)
    assert_bit_equal(simulate_path(config, params), simulate_path_by_steps(config, params))
    root = np.random.SeedSequence(config.seed)
    for k, path in enumerate(simulate_ensemble(config, params, 3)):
        ref = simulate_path_by_steps(replace(config, seed=_child_seed(root, k)), params)
        assert_bit_equal(path, ref)


@pytest.mark.parametrize("post_trade", ["phase-scramble", "collapse"])
@pytest.mark.parametrize("mode", ["balanced", "imbalance-coupled"])
@settings(max_examples=10, deadline=None)
@given(
    prices=st.tuples(st.floats(10.0, 1e300), st.floats(10.0, 1e300)),
    sigmas=st.tuples(st.floats(0.0, 0.01), st.floats(0.0, 0.01)),
    n_steps=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_does_not_read_the_price_property(mode, post_trade, prices, sigmas, n_steps, seed):
    # the kernels step the amplitudes in the frame of the mid, so runs that
    # differ only in the price (initial level and volatility) execute on the
    # same sides with the same imbalance, bit for bit
    config = crash_config(n_steps=n_steps, seed=seed, initial_imbalance=-0.5)
    config = replace(config, mode=mode, post_trade=post_trade)
    runs = [
        (replace(config, initial_price=price), replace(BALANCED_PARAMS, kappa0=0.01, sigma=sigma))
        for price, sigma in zip(prices, sigmas)
    ]
    paths = [simulate_path(*run) for run in runs]
    ensembles = [simulate_ensemble(*run, 3) for run in runs]
    for a, b in [paths, *zip(*ensembles)]:
        assert a.imbalance.tobytes() == b.imbalance.tobytes()
        assert a.at_ask.tobytes() == b.at_ask.tobytes()


# spawn-key words >= 2**32 and two entropy words, one above 2**64
NON_INT_ROOT = np.random.SeedSequence([2**70, 5], spawn_key=(3, 2**40))


@pytest.mark.parametrize("chunk_steps", [None, 7])
@pytest.mark.parametrize("case", ["nonzero_mean", "imbalance_crash"])
def test_non_int_root_seed_matches_per_step_oracle(case, chunk_steps, monkeypatch):
    if chunk_steps is not None:
        monkeypatch.setattr(qcw.market_sim, "_CHUNK_STEPS", chunk_steps)
    config, params = kernel_cases()[case]
    config = replace(config, n_steps=200, seed=NON_INT_ROOT)
    assert_bit_equal(simulate_path(config, params), simulate_path_by_steps(config, params))
    for k, path in enumerate(simulate_ensemble(config, params, 8)):
        assert path.seed.spawn_key == (3, 2**40, k)
        ref = simulate_path_by_steps(replace(config, seed=_child_seed(NON_INT_ROOT, k)), params)
        assert_bit_equal(path, ref)


# ---------------------------------------------------------------------------
# sub-stream seeding against numpy's SeedSequence
# ---------------------------------------------------------------------------

def assert_children_match_seed_sequence(root, n_paths, n_streams):
    """Every generator from _child_rngs has the state of default_rng on _child_seed."""
    rngs = _child_rngs(root, n_paths, n_streams)
    assert rngs.shape == (n_paths, n_streams)
    for (k, i), rng in np.ndenumerate(rngs):
        ref = np.random.default_rng(_child_seed(_child_seed(root, k), i))
        assert rng.bit_generator.state == ref.bit_generator.state, (k, i)
    for i, rng in enumerate(_child_rngs(root, n_streams)):
        ref = np.random.default_rng(_child_seed(root, i))
        assert rng.bit_generator.state == ref.bit_generator.state, i


def test_child_rngs_match_seed_sequence_children():
    assert_children_match_seed_sequence(np.random.SeedSequence(20240917), 64, 4)
    assert_children_match_seed_sequence(NON_INT_ROOT, 5, 4)


@settings(max_examples=60, deadline=None)
@given(
    entropy=st.one_of(
        st.just(0),
        st.integers(1, 2**32 - 1),
        st.integers(2**32, 2**128 - 1),  # two to four words
        st.integers(2**128, 2**256),
        st.lists(st.integers(0, 2**70), max_size=6),
    ),
    spawn_prefix=st.one_of(
        st.just(()),
        st.tuples(st.integers(0, 2**32 - 1)),
        st.tuples(st.integers(2**32, 2**80), st.integers(0, 2**32 - 1)),
    ),
    n_paths=st.integers(1, 64),
    n_streams=st.integers(1, 4),
)
def test_child_rngs_match_seed_sequence_children_property(
    entropy, spawn_prefix, n_paths, n_streams
):
    root = np.random.SeedSequence(entropy, spawn_key=spawn_prefix)
    assert_children_match_seed_sequence(root, n_paths, n_streams)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    size=st.one_of(st.sampled_from([0, 1]), st.integers(2, 5000)),
)
def test_scaled_random_is_the_uniform_scramble_angle_property(seed, size):
    """random(m) * 2*pi is bitwise uniform(0, 2*pi, m), which numpy forms as
    low + (high - low) * next_double, and leaves the stream where it does."""
    scaled_rng, uniform_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    scaled = scaled_rng.random(size) * (2.0 * math.pi)
    uniform = uniform_rng.uniform(0.0, 2.0 * math.pi, size)
    assert scaled.tobytes() == uniform.tobytes()
    assert scaled_rng.bit_generator.state == uniform_rng.bit_generator.state


@pytest.mark.parametrize("collapse", [False, True], ids=["scramble", "collapse"])
@pytest.mark.parametrize("coupled", [False, True], ids=["balanced", "coupled"])
@pytest.mark.parametrize("n_paths", [None, 1, 5], ids=["path", "1_path", "5_paths"])
def test_chunk_draws_equal_stacked_per_path_draws(n_paths, coupled, collapse):
    """_chunk's in-place draws are the per-path draws stacked on the last
    axis, for the rngs of simulate_path (streams,) and of the lockstep kernel
    (streams, paths), and leave every generator where those leave it."""
    params = replace(BALANCED_PARAMS, xi0=0.02, kappa0=-0.03)
    root = np.random.SeedSequence(20240917)
    sizes = (2 if collapse else 3,) if n_paths is None else (n_paths, 2 if collapse else 3)
    rngs, ref_rngs = (_child_rngs(root, *sizes).T for _ in range(2))
    for m in (1, 6):  # the second chunk starts where the first left off
        dz, xi, kappa, rotations, uniforms, scramble = _chunk(rngs, m, params, coupled, collapse)
        ref_dz, nx, nk, ref_uniforms, thetas = chunk_draws_by_stacking(ref_rngs, m, collapse)
        ref_xi = params.xi0 + params.xi1 * nx
        ref_kappa = params.kappa1 * nk if coupled else params.kappa0 + params.kappa1 * nk
        pairs = [(dz, ref_dz), (xi, ref_xi), (kappa, ref_kappa), (uniforms, ref_uniforms)]
        if collapse:
            assert scramble is None
        else:
            pairs += zip(scramble, (np.cos(thetas), np.sin(thetas)))
        if coupled:
            assert rotations is None
        else:
            pairs += zip(rotations, _rotations(ref_xi, ref_kappa, params.dt, params.tau * params.s0))
        for got, ref in pairs:
            assert got.shape == ref.shape == (m, *sizes[:-1])
            assert got.tobytes() == ref.tobytes()
    for rng, ref in zip(rngs.ravel(), ref_rngs.ravel()):
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("post_trade", ["phase-scramble", "collapse"])
@pytest.mark.parametrize("mode", ["balanced", "imbalance-coupled"])
def test_lockstep_chunk_renormalizes_only_the_drifting_paths(mode, post_trade):
    """Paths 1 and 3 start off unit norm by about 2e-10, within NORM_TOL but
    above RENORM_TRIGGER, and the others on it, so the first step
    renormalizes some paths and not others. Every path is still bitwise
    simulate_path from its own initial state and child seed."""
    config, params = shipped("simulate_balanced.json")
    config = replace(config, n_steps=40, mode=mode, c_i=0.05, post_trade=post_trade)
    states = [StateVector(0.8, 0.6 * (1.0 + 3e-10)) if k % 2 else StateVector.from_imbalance(0.28)
              for k in range(5)]
    root = np.random.SeedSequence(config.seed)
    rngs = _child_rngs(root, len(states), 2 if post_trade == "collapse" else 3).T
    values = [(s.psi_ask.real, s.psi_ask.imag, s.psi_bid.real, s.psi_bid.imag, config.initial_price)
              for s in states]
    state = tuple(np.array(column) for column in zip(*values))
    block, _ = _lockstep_chunk(config, params, rngs, 0, config.n_steps, state)
    for k, initial in enumerate(states):
        path = simulate_path(replace(config, initial_state=initial, seed=_child_seed(root, k)),
                             params)
        for field in PATH_FIELDS[1:]:
            assert getattr(block, field)[:, k].tobytes() == getattr(path, field).tobytes(), (k, field)


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=40))
@example(pairs=[(0.0, -0.0), (-0.0, 5e-324), (5e-324, 5e-324), (2.2250738585072014e-308, -1e-310)])
@example(pairs=[(math.inf, math.nan), (-math.inf, 1.0), (math.nan, 1.0), (1.0, -math.nan)])
@example(pairs=[(1e308, 1e308), (3.0, 4.0), (1e-300, 1e300)])
@example(pairs=[(1.2711610061536462e308, 1.2711610061536464e308)])
def test_numpy_hypot_rounds_as_python_complex_abs(pairs):
    """eigenprices_batch takes abs(s12) of complex s12 as np.hypot(re, im).

    Bitwise wherever the result is a number; a NaN stays a NaN, though its
    sign and payload bits may differ (a NaN coupling aborts the run anyway).
    A modulus past float range is inf, where ``abs`` raises OverflowError.
    """

    def modulus(r, i):
        try:
            return abs(complex(r, i))
        except OverflowError:
            return math.inf

    re, im = np.array(pairs).T
    with np.errstate(over="ignore"):
        got = np.hypot(re, im)
    want = np.array([modulus(r, i) for r, i in pairs])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    numbers = ~np.isnan(want)
    assert got[numbers].tobytes() == want[numbers].tobytes()


# seed 0: path 2 aborts first (step 14), before path 0 (step 20);
# seed 3: paths 0 and 1 both abort first, at step 11, which in 7-step
# chunks is inside the second chunk, with chunks after it
@pytest.mark.parametrize("seed", [0, 3])
def test_ensemble_reports_first_abort_in_step_order(seed, monkeypatch):
    params = replace(BALANCED_PARAMS, sigma=0.5)
    config = balanced_config(n_steps=400, seed=seed)
    root = np.random.SeedSequence(seed)
    aborts = []
    for k in range(4):
        try:
            simulate_path(replace(config, seed=_child_seed(root, k)), params)
        except PricePositivityError as exc:
            aborts.append((exc.step, k, exc.price))
    step, path, price = min(aborts)
    assert path > 0 or sorted(aborts)[1][0] == step  # the case is one of the two above
    for chunk_steps in (1, 7, 4096):
        monkeypatch.setattr(qcw.market_sim, "_CHUNK_STEPS", chunk_steps)
        with pytest.raises(PricePositivityError) as err:
            simulate_ensemble(config, params, 4)
        assert (err.value.step, err.value.path, err.value.price) == (step, path, price)


def test_ensemble_reports_first_level_overflow_at_every_chunk_size(monkeypatch):
    # levels near float range: s11 + s22 overflows from step 0, so only the
    # mid of the halves keeps the levels finite until a common part
    # s_trade*(1 + sigma*dz) passes float range
    params = replace(BALANCED_PARAMS, sigma=0.05, tau=1.0)
    config = balanced_config(n_steps=40, seed=0, initial_price=1.7e308)
    root = np.random.SeedSequence(0)
    aborts = []
    for k in range(4):
        try:
            simulate_path(replace(config, seed=_child_seed(root, k)), params)
        except ValidationError as exc:
            message = re.fullmatch(r"price levels are not finite at step (\d+)", str(exc))
            aborts.append((int(message[1]), k))
    step, path = min(aborts)
    # path 2 at step 2: the other paths step on past it to the end of its
    # chunk, and in 7-step chunks later chunks follow
    assert (step, path) == (2, 2)
    for chunk_steps in (1, 7, 4096):
        monkeypatch.setattr(qcw.market_sim, "_CHUNK_STEPS", chunk_steps)
        with pytest.raises(ValidationError) as err:
            simulate_ensemble(config, params, 4)
        assert str(err.value) == f"price levels are not finite at step {step} of path {path}"


# ---------------------------------------------------------------------------
# crash scenario
# ---------------------------------------------------------------------------

def test_crash_mechanism_small_ensemble():
    hits = 0
    for seed in range(20):
        path = simulate_path(crash_config(seed=seed), CRASH_PARAMS)
        if path.bid_fraction() > 0.5 and path.net_log_return() < 0.0:
            hits += 1
    assert hits >= 19


def test_crash_spread_tracks_imbalance_coupling():
    # per-step: kappa = c_i*I + eta, so delta^2 - xi^2 - eta_free^2 ~ c_i^2 I^2;
    # with kappa1 = 0 the identity delta = sqrt(xi^2 + c_i^2 I^2) is exact.
    params = ModelParams(
        sigma=0.0, xi0=0.0, xi1=0.005, kappa0=0.0, kappa1=0.0, tau=1.0, s0=100.0, dt=1.0
    )
    config = crash_config(n_steps=300, seed=5)
    path = simulate_path(config, params)
    # the kappa recorded at step k used the imbalance *before* propagation,
    # i.e. the recorded imbalance of step k-1 (initial imbalance at k=0)
    i_before = np.concatenate([[-0.9], path.imbalance[:-1]])
    expected = np.hypot(path.xi, CRASH_COUPLING * i_before)
    assert np.max(np.abs((path.s_ask - path.s_bid) - expected)) <= 1e-12 * 100.0


def test_coupled_mode_with_zero_coupling_matches_balanced():
    balanced = simulate_ensemble(
        balanced_config(n_steps=400, seed=31), BALANCED_PARAMS, 300
    )
    coupled = simulate_ensemble(
        balanced_config(n_steps=400, seed=57, mode="imbalance-coupled", c_i=0.0),
        BALANCED_PARAMS,
        300,
    )
    # final imbalances across paths are i.i.d. samples of the stationary law
    final_a = np.array([p.imbalance[-1] for p in balanced])
    final_b = np.array([p.imbalance[-1] for p in coupled])
    _, p_value = scipy.stats.ks_2samp(final_a, final_b)
    assert p_value > 0.05


@pytest.mark.parametrize("name", ["imbalance_balanced.json", "imbalance_crash.json"])
def test_collapse_imbalance_follows_the_one_step_law(name):
    # A step rotates the Bloch vector by 2*phi, phi = delta*dt/(2*tau*s0),
    # about an axis whose z-component is xi/delta. Under collapse the state
    # before step k >= 1 is the level of trade k-1, so exactly
    # I_k = +-(1 - 2*(kappa_k/delta_k)^2 * sin^2(phi_k)), + after an ask trade.
    config, params = shipped(name)
    paths = simulate_ensemble(replace(config, n_steps=60, post_trade="collapse"), params, 200)
    # a rounding bound: either side is a dozen or so roundings of terms in
    # [-1, 1] away from the exact law (measured: at most 2 eps)
    bound = 8 * np.finfo(float).eps
    for path in paths:
        xi, kappa = path.xi[1:], path.kappa[1:]
        delta = np.sqrt(xi * xi + kappa * kappa)
        phi = delta * params.dt / (2.0 * params.tau * params.s0)
        law = 1.0 - 2.0 * (kappa / delta) ** 2 * np.sin(phi) ** 2
        sign = np.where(path.at_ask[:-1], 1.0, -1.0)
        assert np.abs(path.imbalance[1:] - sign * law).max() <= bound


@pytest.mark.parametrize("name, tau", [("imbalance_balanced.json", 0.02),
                                       ("imbalance_crash.json", 0.003)])
def test_phase_scramble_imbalance_follows_the_one_step_law_in_mean(name, tau):
    # The scramble after trade k-1 makes the relative phase uniform, so for
    # k >= 1 the step's rotation gives, in the mean over that phase,
    # E[I_k | I_{k-1}, draws_k] = I_{k-1} * (1 - 2*(kappa_k/delta_k)^2 * sin^2(phi_k)).
    # No scramble precedes step 0. tau is cut from the shipped value so that
    # a step moves I by a measurable amount.
    config, params = shipped(name)
    params = replace(params, tau=tau)
    config = replace(config, n_steps=60, seed=3, initial_state=StateVector.from_imbalance(-0.9))
    paths = simulate_ensemble(config, params, 4000)
    imbalances, xi, kappa = (np.stack([getattr(p, f) for p in paths])
                             for f in ("imbalance", "xi", "kappa"))
    xi, kappa = xi[:, 1:], kappa[:, 1:]
    delta = np.sqrt(xi * xi + kappa * kappa)
    phi = delta * params.dt / (2.0 * params.tau * params.s0)
    factor = 1.0 - 2.0 * (kappa / delta) ** 2 * np.sin(phi) ** 2
    residual = (imbalances[:, 1:] - imbalances[:, :-1] * factor).ravel()
    raw = (imbalances[:, 1:] - imbalances[:, :-1]).ravel()

    def z_score(values):
        # The residuals are martingale differences, uncorrelated across steps
        # and paths, so the standard error is that of independent samples.
        return values.mean() / (values.std(ddof=1) / math.sqrt(values.size))

    # Over seeds 3-32 the residual z-scores had sd 0.95 and at most |2.45|.
    assert abs(z_score(residual)) <= 4.0
    # Power: the law without the rotation (I_k = I_{k-1} in the mean) is
    # off by 14.6-18.6 (balanced) and 57-60 (crash) standard errors.
    assert abs(z_score(raw)) >= 10.0


def test_bid_fraction_falls_across_the_ergodicity_crossover():
    # The mean imbalance decays like exp(-M), M = -sum_k log(1 - 2*(kappa_k/delta_k)^2
    # * sin^2(phi_k)). A crash path starts far on the bid side and keeps
    # trading there while M is small; past M ~ 1 it mixes, and its bid
    # fraction nears 1/2. On the crash config at tau = 1 (shipped), 0.01 and
    # 0.001 the median M over paths is about 4e-5, 0.31 and 2.1, and the
    # median bid fraction must fall at each step. Over seeds 100-139 the two
    # falls had mean 0.059 and 0.371, sd 0.0090 and 0.0097, and the median M
    # at tau = 0.01 and 0.001 mean 0.315 and 2.08, sd 0.013 and 0.18; each
    # bound is its mean -+ 5 sd.
    config, params = shipped("imbalance_crash.json")
    medians, decay = [], []
    for tau in (1.0, 0.01, 0.001):
        params = replace(params, tau=tau)
        paths = simulate_ensemble(config, params, 100)
        medians.append(np.median([path.bid_fraction() for path in paths]))
        xi, kappa = (np.stack([getattr(path, f) for path in paths]) for f in ("xi", "kappa"))
        delta = np.sqrt(xi * xi + kappa * kappa)
        phi = delta * params.dt / (2.0 * params.tau * params.s0)
        factor = 1.0 - 2.0 * (kappa / delta) ** 2 * np.sin(phi) ** 2
        decay.append(np.median(-np.log(factor).sum(axis=1)))
    assert decay[1] <= 0.315 + 5 * 0.013 < 1.0 < 2.08 - 5 * 0.18 <= decay[2]
    falls = -np.diff(medians)
    assert falls[0] >= 0.059 - 5 * 0.0090
    assert falls[1] >= 0.371 - 5 * 0.0097


def test_phase_scramble_balanced_imbalance_is_uniform():
    # In balanced mode with phase-scramble each step is an SU(2) rotation and
    # a z-rotation, which both keep the uniform measure on the Bloch sphere,
    # so the stationary I is uniform on [-1, 1] (Archimedes): variance 1/3.
    # The pooled samples are correlated along a path, so the bounds come from
    # the spread over seeds 100-139 of the shipped config: the variance gap
    # had RMS 0.00165 and the KS distance mean 0.0044, sd 0.00165.
    var_gap_bound = 5 * 0.00165
    ks_bound = 0.0044 + 5 * 0.00165
    config, params = shipped("imbalance_balanced.json")

    def pooled(config, params):
        paths = simulate_ensemble(config, params, 100)
        values = np.concatenate([p.imbalance for p in paths])
        return values, scipy.stats.kstest(values, "uniform", args=(-1.0, 2.0)).statistic

    values, ks = pooled(config, params)
    assert values.size == 200_000
    assert abs(values.var() - 1.0 / 3.0) <= var_gap_bound
    assert ks <= ks_bound
    # Power: collapse (KS 0.26) and the crash config (KS 0.95) break the law.
    assert pooled(replace(config, post_trade="collapse"), params)[1] > ks_bound
    assert pooled(*shipped("imbalance_crash.json"))[1] > ks_bound


# ---------------------------------------------------------------------------
# Q(I) histogram and moments
# ---------------------------------------------------------------------------

def test_q_of_i_static_state_concentrates_at_zero():
    params = ModelParams(
        sigma=0.01, xi0=0.0, xi1=0.0, kappa0=0.0, kappa1=0.0, tau=1.0, s0=100.0, dt=1.0
    )
    path = simulate_path(balanced_config(n_steps=500, seed=1), params)
    hist = q_of_i([path], bins=21)
    center_bin = np.searchsorted(hist.edges, 0.0) - 1
    assert hist.masses[center_bin] == 1.0
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_q_of_i_balanced_symmetry_and_crash_asymmetry():
    balanced = simulate_ensemble(balanced_config(n_steps=2000, seed=41), BALANCED_PARAMS, 50)
    summary = imbalance_summary(balanced)
    assert abs(summary["skewness"]) < 0.1

    # a crash ensemble leans hard onto the bid side and is clearly asymmetric
    crash = [simulate_path(crash_config(seed=s), CRASH_PARAMS) for s in range(5)]
    crash_summary = imbalance_summary(crash)
    assert crash_summary["mean"] < -0.5
    assert crash_summary["negative_fraction"] > 0.5
    assert abs(crash_summary["skewness"]) > 0.1

    # the asymmetry direction tracks the imbalance: flipping I(0) mirrors the
    # distribution, so the mass lean and the skewness both change sign
    mirrored = [
        simulate_path(crash_config(seed=s, initial_imbalance=0.9), CRASH_PARAMS)
        for s in range(5)
    ]
    mirrored_summary = imbalance_summary(mirrored)
    assert mirrored_summary["negative_fraction"] < 0.5
    assert mirrored_summary["mean"] > 0.5
    assert mirrored_summary["skewness"] * crash_summary["skewness"] < 0.0


U = 2.0**-53  # unit roundoff
TINY = 2.0**-1074  # bounds the error of a product or quotient that underflows (half of it)


def moment_error_bounds(values, runs):
    """First-order bounds on how far ``_pooled_summary`` and the
    ``math.fsum`` oracle can differ in (mean, variance, skewness): the sum
    over ``runs`` of bounds on each run's rounding error against the exact
    moments. The skewness bound is None where the variance itself is not
    known to a quarter of its size, so the skewness is rounding noise.

    A run is the term count whose gamma (terms*u/(1 - terms*u)) bounds one
    sum divided by the sample size, in any order: the sample size for
    numpy's sums, 2 for a correctly rounded ``math.fsum`` and its division.
    A product or quotient errs by u of itself plus TINY, where it
    underflows; a sum or difference that underflows is exact. Scaling by
    2^-e is exact, and the moments below are of the centered values c
    scaled by it, as both runs scale them (so their products underflow only
    far below the largest).

    The first mean errs by delta <= gamma*mean|x| + TINY. What centering on
    it and on the mean of the residuals leaves errs, per value, by at most
    2u|c| + E, with E = (gamma + 2u)*(mean|c| + delta) + 2u*delta + 2*TINY.
    The variance then errs by 4u*M2 + 2E*mean|c| from the centered values
    and by (gamma + 2u)*M2 + 2*TINY from one product and the sum; the third
    moment by 6u*M3 + 3E*M2 and (gamma + 3u)*M3 + 4*TINY from two products
    and the sum, with M2 = mean c^2 and M3 = mean |c|^3. To first order the
    skewness (mean c^3)/M2^1.5 moves by d_third/M2^1.5 +
    1.5|skewness|*d_var/M2, and by 3u of itself for the quotient and the
    power. Each first-order
    bound is doubled, which covers the second-order terms while every
    first-order relative error is below 1/4.
    """
    n = len(values)
    _, centered, e = centered_by_fsum(values)

    def average(v):
        return math.fsum(v) / n

    a = average(abs(v) for v in values)
    b1, m2, m3 = (average(abs(c) ** k for c in centered) for k in (1, 2, 3))
    skewness = average(c**3 for c in centered) / m2**1.5 if m2 > 0 else 0.0
    d_mean = d_var = d_third = 0.0
    for terms in runs:
        gamma = terms * U / (1.0 - terms * U)
        delta = gamma * a + TINY
        e_abs = (gamma + 2 * U) * (b1 + delta) + 2 * U * delta + 2 * TINY
        e_scaled = math.ldexp(e_abs, -e) + TINY
        d_mean += 2.0 * (e_abs + U * a + TINY)
        d_var += 2.0 * ((gamma + 6 * U) * m2 + 2 * e_scaled * b1 + 2 * TINY)
        d_third += 2.0 * ((gamma + 9 * U) * m3 + 3 * e_scaled * m2 + 4 * TINY)
    d_skew = None
    if d_var <= m2 / 4:
        d_skew = 2.0 * (d_third / m2**1.5 + 1.5 * abs(skewness) * d_var / m2)
        d_skew += 3 * U * abs(skewness) * len(runs)
    # the variance leaves the scaled units by one more rounding, in each run
    return d_mean, math.ldexp(d_var, 2 * e) + len(runs) * TINY, d_skew


NEAR_CONSTANT = st.builds(
    lambda v, steps: [min(1.0, max(-1.0, v + k * math.ulp(v))) for k in steps],
    st.floats(-1.0, 1.0),
    st.lists(st.integers(-4, 4), min_size=1, max_size=300),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300),
        st.builds(lambda v, n: [v] * n, st.floats(-1.0, 1.0), st.integers(1, 300)),
        NEAR_CONSTANT,
    )
)
@example(values=[0.1] * 3)  # a mean that rounds off the constant
@example(values=[0.0, 3.254547213096818e-163])  # squares that underflow unscaled
@example(values=[4.817012924860141e-115, 4.817012924860142e-115])  # and so does V^1.5
def test_pooled_summary_matches_fsum_moments(values):
    got = _pooled_summary(np.array(values))
    if len(set(values)) == 1:  # a constant sample centers to zeros
        assert (got["mean"], got["variance"], got["skewness"]) == (values[0], 0.0, 0.0)
    mean, variance, skewness = moments_by_fsum(values)
    d_mean, d_var, d_skew = moment_error_bounds(values, runs=(len(values), 2))
    assert abs(got["mean"] - mean) <= d_mean
    assert abs(got["variance"] - variance) <= d_var
    if d_skew is not None:
        assert abs(got["skewness"] - skewness) <= d_skew


def test_q_of_i_empty_inputs():
    with pytest.raises(ValidationError):
        q_of_i([])
    with pytest.raises(ValidationError):
        imbalance_summary([])


@pytest.mark.parametrize("bins", [0, True, 4.0])
def test_q_of_i_and_crash_require_integer_bins(bins):
    path = simulate_path(balanced_config(n_steps=10), BALANCED_PARAMS)
    with pytest.raises(ValidationError):
        q_of_i([path], bins=bins)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_sim_config_validation():
    with pytest.raises(ValidationError):
        balanced_config(n_steps=True)
    with pytest.raises(ValidationError):
        balanced_config(initial_price=0.0)
    with pytest.raises(ValidationError):
        balanced_config(mode="weird")
    with pytest.raises(ValidationError):
        balanced_config(post_trade="drop")
    with pytest.raises(ValidationError):
        balanced_config(initial_state=StateVector(1.0, 1.0))
    with pytest.raises(ValidationError):
        balanced_config(c_i=math.inf)


@pytest.mark.parametrize("bad", [10**400, True, math.nan], ids=["huge_int", "bool", "nan"])
@pytest.mark.parametrize("name", ["initial_price", "c_i"])
def test_sim_config_numbers_must_be_finite(name, bad):
    with pytest.raises(ValidationError, match=f"{name} must be a finite number"):
        balanced_config(**{name: bad})


@pytest.mark.parametrize("seed", [1.5, True, "7", -1, None, [3]])
def test_sim_config_rejects_bad_seed(seed):
    with pytest.raises(ValidationError, match="seed"):
        balanced_config(seed=seed)


def test_sim_config_accepts_integer_and_seed_sequence_seeds():
    assert type(balanced_config(seed=np.uint64(7)).seed) is int
    assert balanced_config(seed=np.uint64(7)).seed == 7
    root = np.random.SeedSequence(7)
    assert balanced_config(seed=root).seed is root
    path = simulate_path(balanced_config(n_steps=20, seed=np.int64(7)), BALANCED_PARAMS)
    assert_bit_equal(path, simulate_path(balanced_config(n_steps=20, seed=7), BALANCED_PARAMS))
