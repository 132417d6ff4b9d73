import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcw import (
    ModelParams,
    StateVector,
    ValidationError,
    imbalance,
    probabilities,
    propagate,
    randomize_phase,
)
from qcw.wave_dynamics import _norm2, _norm2_array

from oracles import norm2_by_scaling, propagate_expm


def phase_params(dt, tau=1.0, s0=1.0):
    return ModelParams(
        sigma=0.0, xi0=0.0, xi1=0.0, kappa0=0.0, kappa1=0.0, tau=tau, s0=s0, dt=dt
    )


def as_array(state):
    return np.array([state.psi_ask, state.psi_bid])


def test_full_transfer_at_quarter_period():
    # pure coupling, phi = pi/2: all probability moves to the bid component
    params = phase_params(dt=math.pi)  # phi = delta*dt/(2*tau*s0) = pi/2 at delta=1
    out = propagate(StateVector(1.0, 0.0), xi=0.0, kappa=1.0, s_mid=0.0, params=params)
    assert out.psi_ask == pytest.approx(0.0, abs=1e-15)
    assert out.psi_bid == pytest.approx(-1j, abs=1e-12)
    assert probabilities(out)[1] == pytest.approx(1.0, abs=1e-12)


def test_half_transfer_at_eighth_period():
    params = phase_params(dt=math.pi / 2.0)  # phi = pi/4
    out = propagate(StateVector(1.0, 0.0), xi=0.0, kappa=1.0, s_mid=0.0, params=params)
    p_ask, p_bid = probabilities(out)
    assert p_ask == pytest.approx(0.5, abs=1e-12)
    assert p_bid == pytest.approx(0.5, abs=1e-12)


def test_diagonal_elements_cannot_transfer_probability():
    rng = np.random.default_rng(3)
    params = phase_params(dt=0.7)
    state = StateVector.from_amplitudes(0.3 + 0.1j, 0.8 - 0.2j)
    before = probabilities(state)
    for xi in rng.normal(0.0, 2.0, 10):
        after = probabilities(propagate(state, xi=float(xi), kappa=0.0, s_mid=5.0, params=params))
        assert after[0] == pytest.approx(before[0], abs=1e-14)
        assert after[1] == pytest.approx(before[1], abs=1e-14)


def test_zero_spread_is_identity_up_to_global_phase():
    params = phase_params(dt=1.3)
    state = StateVector.from_amplitudes(0.6, 0.8j)
    out = propagate(state, xi=0.0, kappa=0.0, s_mid=27.9, params=params)
    phase = cmath.exp(-1j * 27.9 * params.dt / (params.tau * params.s0))
    assert out.psi_ask == pytest.approx(phase * state.psi_ask, abs=1e-14)
    assert out.psi_bid == pytest.approx(phase * state.psi_bid, abs=1e-14)


def test_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(29)
    params = phase_params(dt=0.9, tau=0.7, s0=113.0)
    for k in range(300):
        xi = float(rng.normal(0.0, 0.3))
        kappa = complex(rng.normal(0.0, 0.3), rng.normal(0.0, 0.3) if k % 2 else 0.0)
        s_mid = float(rng.uniform(1.0, 300.0))
        state = StateVector.from_amplitudes(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        )
        s11 = s_mid + 0.5 * xi
        s22 = s_mid - 0.5 * xi
        expected = propagate_expm(
            s11, s22, 0.5 * kappa, as_array(state), params.dt, params.tau, params.s0
        )
        out = propagate(state, xi, kappa, s_mid, params, renormalize=False)
        assert abs(out.psi_ask - expected[0]) < 1e-10
        assert abs(out.psi_bid - expected[1]) < 1e-10


def test_unitarity_over_long_run():
    rng = np.random.default_rng(37)
    params = phase_params(dt=1.0, tau=1.0, s0=10.0)
    state = StateVector.balanced()
    worst = 0.0
    for _ in range(20_000):
        state = propagate(
            state,
            xi=float(rng.normal(0.0, 0.5)),
            kappa=float(rng.normal(0.0, 0.5)),
            s_mid=float(rng.uniform(0.0, 50.0)),
            params=params,
            renormalize=False,
        )
        worst = max(worst, abs(state.norm_sq() - 1.0))
    assert worst < 1e-9


angles = st.floats(min_value=-math.pi, max_value=math.pi)
elements = st.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.5 * math.pi),
    angles,
    angles,
    elements,
    elements,
    elements,
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_propagate_preserves_norm_property(mix, phase_a, phase_b, xi, re_k, im_k, s_mid, dt):
    state = StateVector(
        math.cos(mix) * cmath.exp(1j * phase_a), math.sin(mix) * cmath.exp(1j * phase_b)
    )
    params = phase_params(dt)
    raw = propagate(state, xi, complex(re_k, im_k), s_mid, params, renormalize=False)
    assert abs(raw.norm_sq() - 1.0) <= 1e-13
    out = propagate(state, xi, complex(re_k, im_k), s_mid, params)
    assert abs(out.norm_sq() - 1.0) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.5 * math.pi),
    angles,
    angles,
    angles,
    elements,
    elements,
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_coupling_phase_is_a_change_of_basis_property(
    mix, phase_a, phase_b, theta, xi, k, s_mid, dt
):
    """kappa = |k|*e^{i*theta} is the real coupling |k| in the basis D = diag(e^{i*theta}, 1).

    So propagate(psi, kappa) = D*propagate(D^-1*psi, |k|): the levels see
    only |kappa|, and the execution probabilities do not see D at all. The
    real side takes abs(kappa), so that both sides form the same angle.
    """
    state = StateVector(
        math.cos(mix) * cmath.exp(1j * phase_a), math.sin(mix) * cmath.exp(1j * phase_b)
    )
    params = phase_params(dt)
    d = cmath.exp(1j * theta)
    kappa = abs(k) * d
    out = propagate(state, xi, kappa, s_mid, params)
    real = propagate(StateVector(state.psi_ask / d, state.psi_bid), xi, abs(kappa), s_mid, params)
    assert abs(out.psi_ask - d * real.psi_ask) <= 1e-12
    assert abs(out.psi_bid - real.psi_bid) <= 1e-12
    assert probabilities(out) == pytest.approx(probabilities(real), abs=1e-12)


def test_propagate_rejects_non_finite_phase():
    with pytest.raises(ValidationError, match="phase"):
        propagate(StateVector.balanced(), 0.1, 0.1, 1e300, phase_params(1.0, tau=1e-9))


def test_propagate_coupling_modulus_past_float_range_is_validation_error():
    # abs() of this finite coupling raises OverflowError; the angle is inf.
    with pytest.raises(ValidationError, match="rotation angle"):
        propagate(StateVector.balanced(), 0.1, complex(1.28e308, 1.28e308), 1.0,
                  phase_params(1.0))


@pytest.mark.parametrize(
    "xi, kappa, s_mid, what",
    [
        (10**400, 0.1, 1.0, "xi"), ("1", 0.1, 1.0, "xi"), (True, 0.1, 1.0, "xi"),
        (math.nan, 0.1, 1.0, "xi"),
        (0.1, 10**400, 1.0, "kappa"), (0.1, np.True_, 1.0, "kappa"), (0.1, None, 1.0, "kappa"),
        (0.1, complex(0.0, math.inf), 1.0, "kappa"),
        (0.1, 0.1, 10**400, "s_mid"), (0.1, 0.1, "1", "s_mid"), (0.1, 0.1, True, "s_mid"),
    ],
    ids=["huge_int", "text", "bool", "nan", "huge_int_kappa", "bool_kappa", "none_kappa",
         "inf_kappa", "huge_int_mid", "text_mid", "bool_mid"],
)
def test_propagate_rejects_inputs_that_are_not_finite_numbers(xi, kappa, s_mid, what):
    with pytest.raises(ValidationError, match=f"{what} must be a finite number"):
        propagate(StateVector.balanced(), xi, kappa, s_mid, phase_params(1.0))


def test_global_phase_has_no_observable_effect():
    params = phase_params(dt=0.8)
    state = StateVector.from_amplitudes(0.7, 0.2 + 0.4j)
    reference = propagate(state, xi=0.2, kappa=0.5, s_mid=0.0, params=params)
    shifted = propagate(state, xi=0.2, kappa=0.5, s_mid=813.0, params=params)
    assert probabilities(shifted)[0] == pytest.approx(probabilities(reference)[0], abs=1e-12)
    assert imbalance(shifted) == pytest.approx(imbalance(reference), abs=1e-12)


def test_probability_oscillation_period():
    # with constant spread the ask probability is periodic; the period is
    # pi/omega with omega = delta/(2*tau*s0)
    xi, kappa = 0.6, 0.8  # delta = 1
    omega = 1.0 / 2.0
    steps_per_period = 100
    params = phase_params(dt=math.pi / omega / steps_per_period)
    state = StateVector(1.0, 0.0)
    traj = []
    for _ in range(3 * steps_per_period):
        state = propagate(state, xi, kappa, s_mid=0.0, params=params)
        traj.append(probabilities(state)[0])
    traj = np.array(traj)
    assert np.max(np.abs(traj[:steps_per_period] - traj[steps_per_period : 2 * steps_per_period])) < 1e-9


def test_probabilities_examples():
    assert probabilities(StateVector(1.0, 0.0)) == (1.0, 0.0)
    p = probabilities(StateVector(math.sqrt(0.5), 1j * math.sqrt(0.5)))
    assert p[0] == pytest.approx(0.5, abs=1e-15)
    assert p[1] == pytest.approx(0.5, abs=1e-15)
    p = probabilities(StateVector(math.sqrt(0.75), 0.5j))
    assert p[0] == pytest.approx(0.75, abs=1e-15)
    assert p[1] == pytest.approx(0.25, abs=1e-15)
    assert sum(p) == pytest.approx(1.0, abs=1e-9)


def test_imbalance_examples():
    assert imbalance(StateVector(1.0, 0.0)) == 1.0
    assert imbalance(StateVector.balanced()) == pytest.approx(0.0, abs=1e-15)
    assert imbalance(StateVector(math.sqrt(0.75), 0.5)) == pytest.approx(0.5, abs=1e-15)


def test_from_imbalance_round_trip():
    for i in (-1.0, -0.9, -0.25, 0.0, 0.4, 1.0):
        assert imbalance(StateVector.from_imbalance(i)) == pytest.approx(i, abs=1e-14)
    with pytest.raises(ValidationError):
        StateVector.from_imbalance(1.5)


@pytest.mark.parametrize("bad", [10**400, True, math.nan], ids=["huge_int", "bool", "nan"])
def test_from_imbalance_requires_a_finite_number(bad):
    with pytest.raises(ValidationError, match="imbalance must lie in"):
        StateVector.from_imbalance(bad)


def test_randomize_phase_preserves_probabilities():
    rng = np.random.default_rng(61)
    state = StateVector(1.0, 0.0)
    out = randomize_phase(state, rng)
    assert abs(out.psi_ask) == pytest.approx(1.0, abs=1e-15)
    assert out.psi_bid == 0.0
    state = StateVector.from_amplitudes(0.3 + 0.5j, -0.7 + 0.1j)
    before = probabilities(state)
    for _ in range(100):
        after = probabilities(randomize_phase(state, rng))
        assert after[0] == pytest.approx(before[0], abs=1e-15)
        assert after[1] == pytest.approx(before[1], abs=1e-15)


def test_scrambling_kills_interference_on_average():
    # after a random relative phase the propagated ask probability averages
    # to the incoherent mixture of the transition probabilities
    rng = np.random.default_rng(67)
    params = phase_params(dt=0.9)
    xi, kappa = 0.4, 0.7
    delta = math.hypot(xi, kappa)
    phi = 0.5 * delta * params.dt
    u11_sq = math.cos(phi) ** 2 + (xi / delta * math.sin(phi)) ** 2
    u12_sq = (kappa / delta * math.sin(phi)) ** 2
    state = StateVector.balanced()
    p_ask0, p_bid0 = probabilities(state)
    incoherent = u11_sq * p_ask0 + u12_sq * p_bid0
    n = 10_000
    acc = 0.0
    for _ in range(n):
        scrambled = randomize_phase(state, rng)
        acc += probabilities(propagate(scrambled, xi, kappa, 0.0, params))[0]
    assert abs(acc / n - incoherent) < 3.0 / math.sqrt(n)


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(any_float, any_float), min_size=1, max_size=40))
@example(pairs=[(2.0**500, 0.0), (2.0**500, 2.0**500), (2.0**-500, 0.0), (2.0**-501, 2.0**-501)])
@example(pairs=[(5e-324, 0.0), (5e-324, -5e-324), (0.0, -0.0), (3.0, 4.0)])
@example(pairs=[(1.2711610061536462e308, 1.2711610061536464e308), (math.inf, math.nan)])
def test_norm2_rounds_alike_on_floats_and_arrays(pairs):
    """_norm2 is bitwise _norm2_array (a NaN where it is NaN), and within
    1 ulp of math.hypot wherever that is finite and positive (inf counting
    as the float after the largest)."""
    bits = lambda x: int(np.float64(x).view(np.int64))  # noqa: E731
    hs, ks = zip(*pairs)
    for (h, k), in_array in zip(pairs, _norm2_array(hs, ks).tolist()):
        r = _norm2(h, k)
        if math.isnan(r):
            assert math.isnan(in_array)
        else:
            assert bits(r) == bits(in_array)
        ref = math.hypot(h, k)
        if 0.0 < ref < math.inf:
            assert abs(bits(r) - bits(ref)) <= 1


def test_state_validation():
    with pytest.raises(ValidationError):
        StateVector(math.nan, 0.0)
    for bad in (10**400, True, np.True_, None, "one"):
        with pytest.raises(ValidationError):
            StateVector(bad, 0.0)
    state = StateVector(np.float32(0.75), np.complex64(0.5j))
    assert (state.psi_ask, state.psi_bid) == (0.75, 0.5j)
    assert type(state.psi_ask) is type(state.psi_bid) is complex
    with pytest.raises(ValidationError):
        StateVector(0.6, 0.9).require_normalized()
    StateVector.balanced().require_normalized()
    with pytest.raises(ValidationError):
        StateVector(0.0, 0.0).normalized()


_LO, _HI = 2.0**-500, 2.0**500
NORM2_EDGES = [
    _LO, math.nextafter(_LO, 0.0), math.nextafter(_HI, 0.0), _HI, 0.0, math.inf, math.nan,
    1.0, 1.7e308,
]
NORM2_EDGE_PAIRS = [pair for v in NORM2_EDGES for pair in ((v, 0.0), (0.0, -v), (v, 5e-324))] + [
    (3.0 * 2.0**-502, 4.0 * 2.0**-502),  # a norm of 1.25 * 2^-500
    (3.0 * 2.0**498, 4.0 * 2.0**498),  # 1.25 * 2^500
    (1.7e308, 1.7e308),  # past float range
    (5e-324, 0.0), (5e-324, -5e-324), (1.1e-308, 1e-310), (-1e-310, 3e-310),  # subnormal parts
    (2.0**-500, 2.0**-540), (2.0**-520, 2.0**-500),
]


def test_norm2_array_matches_the_scaled_evaluation_at_its_window_edges():
    """At the edges of the unscaled window [2^-500, 2^500), at 0, inf and NaN,
    and on subnormal parts, _norm2_array is bitwise the evaluation that scales
    every pair first: one pair at a time (the early return wherever the pair
    is inside), all pairs at once and beside an inside pair (the masked
    scaling), and as _norm2."""
    hs, ks = (np.array(v) for v in zip(*NORM2_EDGE_PAIRS))
    together = _norm2_array(hs, ks).tolist()
    for (h, k), in_bulk in zip(NORM2_EDGE_PAIRS, together):
        expected = norm2_by_scaling(h, k).hex()
        alone = float(_norm2_array(h, k))
        beside_inside = _norm2_array([1.0, h], [1.0, k])[1]
        for got in (alone, in_bulk, float(beside_inside), _norm2(h, k)):
            assert got.hex() == expected, (h, k)
