import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import simulate_path_by_steps

import qcw.market_sim
from qcw import (
    BookLevel,
    ModelParams,
    PricePositivityError,
    SimConfig,
    StateVector,
    ValidationError,
    effective_levels,
    imbalance_summary,
    q_of_i,
    simulate_crash,
    simulate_ensemble,
    simulate_path,
)
from qcw.cli import _model_params, _sim_config
from qcw.market_sim import _child_rngs, _child_seed

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


def test_positivity_guard_aborts_with_step_index():
    params = ModelParams(
        sigma=0.0, xi0=0.0, xi1=2.0, kappa0=0.0, kappa1=0.0, tau=1.0, s0=100.0, dt=1.0
    )
    with pytest.raises(PricePositivityError) as err:
        simulate_path(balanced_config(n_steps=5000, initial_price=0.5, seed=11), params)
    assert err.value.step >= 0
    assert err.value.price <= 0.0


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
        "complex_coupling": (
            replace(config, n_steps=3000),
            replace(params, complex_coupling=True),
        ),
        # kappa follows the state: the rotation is formed step by step
        "imbalance_crash": (replace(crash_config, n_steps=3000), crash_params),
        # the Wiener limit xi = kappa = 0: delta = 0 at every step, so a norm
        # drift within NORM_TOL but above RENORM_TRIGGER is never renormalized
        "wiener": (
            replace(config, n_steps=3000, initial_state=StateVector(0.8, 0.6 * (1.0 + 1e-10))),
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


@settings(max_examples=40, deadline=None)
@given(
    n_paths=st.integers(1, 8),
    n_steps=st.integers(1, 60),
    mode=st.sampled_from(["balanced", "imbalance-coupled"]),
    post_trade=st.sampled_from(["phase-scramble", "collapse"]),
    complex_coupling=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    chunk_steps=st.sampled_from([1, 7, 4096]),
)
def test_ensemble_matches_paths_property(
    n_paths, n_steps, mode, post_trade, complex_coupling, seed, chunk_steps
):
    config = crash_config(n_steps=n_steps, seed=seed, initial_imbalance=-0.5)
    config = replace(config, mode=mode, post_trade=post_trade)
    params = replace(BALANCED_PARAMS, kappa0=0.01, complex_coupling=complex_coupling)
    # one-step and ragged last chunks in both kernels; set by hand, since
    # hypothesis runs every example inside one function-scoped monkeypatch
    default = qcw.market_sim._CHUNK_STEPS
    qcw.market_sim._CHUNK_STEPS = chunk_steps
    try:
        assert_ensemble_matches_paths(config, params, n_paths)
    finally:
        qcw.market_sim._CHUNK_STEPS = default


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
    for name, ensemble in ensembles.items():
        for path, ref_path in zip(simulate_ensemble(*shipped(name), 4), ensemble):
            assert_bit_equal(path, ref_path)


def test_kernel_rejects_non_finite_propagation_phase():
    # finite levels near 1e300, but s_mid*dt/(tau*s0) overflows
    params = replace(BALANCED_PARAMS, tau=1e-9, s0=1.0)
    config = balanced_config(n_steps=10, initial_price=1e300)
    with pytest.raises(ValidationError, match="phase .* at step 0$"):
        simulate_path(config, params)
    with pytest.raises(ValidationError, match="phase .* at step 0 of path 0$"):
        simulate_ensemble(config, params, 3)


def test_kernel_rejects_non_finite_rotation_angle():
    # delta ~ 1e300 keeps the levels finite, but delta*dt/(2*tau*s0) overflows
    params = replace(BALANCED_PARAMS, xi0=1e300, tau=1e-12, s0=1.0)
    config = balanced_config(n_steps=10)
    with pytest.raises(ValidationError, match="rotation angle .* at step 0$"):
        simulate_path(config, params)
    with pytest.raises(ValidationError, match="rotation angle .* at step 0 of path 0$"):
        simulate_ensemble(config, params, 3)


# spawn-key words >= 2**32 and two entropy words, one above 2**64
NON_INT_ROOT = np.random.SeedSequence([2**70, 5], spawn_key=(3, 2**40))


@pytest.mark.parametrize("chunk_steps", [None, 7])
@pytest.mark.parametrize("case", ["complex_coupling", "imbalance_crash"])
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


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=40))
@example(pairs=[(0.0, -0.0), (-0.0, 5e-324), (5e-324, 5e-324), (2.2250738585072014e-308, -1e-310)])
@example(pairs=[(math.inf, math.nan), (-math.inf, 1.0), (math.nan, 1.0), (1.0, -math.nan)])
@example(pairs=[(1e308, 1e308), (3.0, 4.0), (1e-300, 1e300)])
@example(pairs=[(1.2711610061536462e308, 1.2711610061536464e308)])
def test_numpy_hypot_rounds_as_python_complex_abs(pairs):
    """_rotations takes abs(kappa) of complex kappa as np.hypot(re, im).

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
# seed 3: paths 0 and 1 both abort first, at step 11
@pytest.mark.parametrize("seed", [0, 3])
def test_ensemble_reports_first_abort_in_step_order(seed):
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
    with pytest.raises(PricePositivityError) as err:
        simulate_ensemble(config, params, 4)
    assert (err.value.step, err.value.path, err.value.price) == (step, path, price)


# ---------------------------------------------------------------------------
# crash scenario
# ---------------------------------------------------------------------------

def test_crash_requires_coupled_mode():
    with pytest.raises(ValidationError):
        simulate_crash(balanced_config(), BALANCED_PARAMS)


def test_crash_mechanism_small_ensemble():
    hits = 0
    for seed in range(20):
        report = simulate_crash(crash_config(seed=seed), CRASH_PARAMS)
        if report.bid_fraction > 0.5 and report.net_log_return < 0.0:
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
    crash_reports = [simulate_crash(crash_config(seed=s), CRASH_PARAMS) for s in range(5)]
    crash_summary = imbalance_summary([r.path for r in crash_reports])
    assert crash_summary["mean"] < -0.5
    assert crash_summary["negative_fraction"] > 0.5
    assert abs(crash_summary["skewness"]) > 0.1

    # the asymmetry direction tracks the imbalance: flipping I(0) mirrors the
    # distribution, so the mass lean and the skewness both change sign
    mirrored = [
        simulate_crash(crash_config(seed=s, initial_imbalance=0.9), CRASH_PARAMS)
        for s in range(5)
    ]
    mirrored_summary = imbalance_summary([m.path for m in mirrored])
    assert mirrored_summary["negative_fraction"] < 0.5
    assert mirrored_summary["mean"] > 0.5
    assert mirrored_summary["skewness"] * crash_summary["skewness"] < 0.0


def test_q_of_i_empty_inputs():
    with pytest.raises(ValidationError):
        q_of_i([])
    with pytest.raises(ValidationError):
        imbalance_summary([])


# ---------------------------------------------------------------------------
# effective multilevel prices
# ---------------------------------------------------------------------------

def test_effective_levels_single_level_is_identity():
    asks = [BookLevel(27.87, 100)]
    bids = [BookLevel(27.83, 100)]
    ask_eff, bid_eff = effective_levels(asks, bids, 1)
    assert (ask_eff, bid_eff) == (27.87, 27.83)


def test_effective_levels_weighted_example():
    asks = [BookLevel(27.87, 100), BookLevel(27.90, 300), BookLevel(27.95, 100)]
    bids = [BookLevel(27.83, 100), BookLevel(27.82, 400)]
    ask_eff, bid_eff = effective_levels(asks, bids, 3)
    assert ask_eff == pytest.approx(27.904, abs=1e-12)  # 13952 / 500
    assert bid_eff == pytest.approx((27.83 * 100 + 27.82 * 400) / 500, abs=1e-12)
    assert ask_eff >= 27.87 >= 27.83 >= bid_eff


def test_effective_levels_equal_sizes_plain_average():
    asks = [BookLevel(10.0, 5), BookLevel(11.0, 5), BookLevel(12.0, 5)]
    bids = [BookLevel(9.0, 5), BookLevel(8.0, 5)]
    ask_eff, bid_eff = effective_levels(asks, bids, 3)
    assert ask_eff == pytest.approx(11.0, abs=1e-12)
    assert bid_eff == pytest.approx(8.5, abs=1e-12)


def test_effective_levels_ranks_best_first():
    # shuffled input: best ask is the lowest price, best bid the highest
    asks = [BookLevel(27.95, 100), BookLevel(27.87, 100)]
    bids = [BookLevel(27.75, 300), BookLevel(27.83, 100)]
    ask_eff, bid_eff = effective_levels(asks, bids, 1)
    assert (ask_eff, bid_eff) == (27.87, 27.83)


def test_effective_levels_errors():
    bids = [BookLevel(27.83, 100)]
    with pytest.raises(ValidationError):
        effective_levels([], bids, 1)
    with pytest.raises(ValidationError):
        effective_levels(bids, [], 1)
    with pytest.raises(ValidationError):
        effective_levels(bids, bids, 0)
    with pytest.raises(ValidationError):
        BookLevel(27.83, 0)


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
