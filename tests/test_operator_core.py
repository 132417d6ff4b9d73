import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcw import (
    PriceOperator2,
    ValidationError,
    eigenprices,
    eigenprices_batch,
)
from qcw.wave_dynamics import _modulus, _norm2

from oracles import eig_2x2_hermitian_extended


def random_operator_elements(rng, n):
    """Random valid Hermitian elements with price-like scales."""
    s_mid = rng.uniform(5.0, 1000.0, n)
    diff = rng.normal(0.0, 1.0, n)
    s12 = rng.normal(0.0, 1.0, n) + 1j * rng.normal(0.0, 1.0, n)
    return s_mid + 0.5 * diff, s_mid - 0.5 * diff, s12


def test_single_price_operator_has_zero_spread():
    for s in (1.0, 27.9, 640.25):
        levels = eigenprices(PriceOperator2(s, s, 0.0))
        assert levels.s_ask == levels.s_bid == s
        assert levels.delta == 0.0
        assert levels.s_mid == s


def test_real_coupling_example():
    levels = eigenprices(PriceOperator2(28.00, 27.80, 0.05))
    assert levels.s_mid == pytest.approx(27.90, abs=1e-12)
    assert levels.delta == pytest.approx(math.sqrt(0.05), rel=1e-12)
    assert levels.delta == pytest.approx(0.2236068, abs=5e-8)
    assert levels.s_ask == pytest.approx(28.0118034, abs=5e-8)
    assert levels.s_bid == pytest.approx(27.7881966, abs=5e-8)


def test_imaginary_coupling_example():
    # only |s12| can matter for the spread
    levels = eigenprices(PriceOperator2(27.90, 27.90, 0.04j))
    assert levels.delta == pytest.approx(0.08, rel=1e-12)
    assert levels.s_ask == pytest.approx(27.94, rel=1e-12)
    assert levels.s_bid == pytest.approx(27.86, rel=1e-12)


def test_levels_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        s11, s22, s12 = (x[0] for x in random_operator_elements(rng, 1))
        levels = eigenprices(PriceOperator2(float(s11), float(s22), complex(s12)))
        assert levels.s_ask >= levels.s_bid
        assert levels.delta >= 0.0
        assert levels.s_mid == pytest.approx(0.5 * (levels.s_ask + levels.s_bid), rel=1e-14)
        assert levels.delta == pytest.approx(levels.s_ask - levels.s_bid, rel=1e-10, abs=1e-12)


def test_trace_and_determinant_identities():
    rng = np.random.default_rng(11)
    n = 100_000
    s11, s22, s12 = random_operator_elements(rng, n)
    ask, bid, _, _ = eigenprices_batch(s11, s22, s12)
    trace = s11 + s22
    det = s11 * s22 - np.abs(s12) ** 2
    assert np.max(np.abs(ask + bid - trace) / np.abs(trace)) < 1e-10
    assert np.max(np.abs(ask * bid - det) / np.maximum(np.abs(det), 1e-12)) < 1e-10


def test_matches_extended_precision_oracle():
    rng = np.random.default_rng(13)
    n = 100_000
    s11, s22, s12 = random_operator_elements(rng, n)
    ask, bid, _, _ = eigenprices_batch(s11, s22, s12)
    ask_ref, bid_ref = eig_2x2_hermitian_extended(s11, s22, s12)
    assert np.max(np.abs(ask - ask_ref) / np.abs(ask_ref)) < 1e-12
    assert np.max(np.abs(bid - bid_ref) / np.abs(bid_ref)) < 1e-12


def test_batch_agrees_with_scalar():
    rng = np.random.default_rng(17)
    s11, s22, s12 = random_operator_elements(rng, 200)
    ask, bid, mid, delta = eigenprices_batch(s11, s22, s12)
    for k in range(200):
        levels = eigenprices(PriceOperator2(float(s11[k]), float(s22[k]), complex(s12[k])))
        assert (levels.s_ask, levels.s_bid, levels.s_mid, levels.delta) == (
            ask[k], bid[k], mid[k], delta[k]
        )


elements = st.floats(min_value=-1.7e308, max_value=1.7e308)


@settings(max_examples=300, deadline=None)
@given(elements, elements, elements, elements)
@example(1.7e308, -1.7e308, 0.0, 0.0)
@example(1.0, 1.0, 1.7e308, 1.7e308)
@example(1e-310, -1e-310, 5e-324, -5e-324)
@example(1.7e308, 1.7e308, 1.7e308, 1.7e308)
@example(-1.7e308, -1.7e308, 0.0, 0.0)
@example(1e308, -1e308, 0.0, 0.0)
def test_eigenprices_identities_and_batch_property(s11, s22, re12, im12):
    s12 = complex(re12, im12)
    levels = eigenprices(PriceOperator2(s11, s22, s12))
    if s12 == 0:  # the levels are the diagonal, finite even where s11 - s22 is not
        assert math.isfinite(levels.s_ask) and math.isfinite(levels.s_bid)
    # Where the sum passes float range, the mid is the sum of the halves.
    mid = 0.5 * (s11 + s22)
    assert levels.s_mid == (mid if math.isfinite(mid) else 0.5 * s11 + 0.5 * s22)
    assert not any(map(math.isnan, (levels.s_ask, levels.s_bid, levels.s_mid, levels.delta)))
    assert levels.s_ask >= levels.s_bid and levels.delta >= 0.0
    # The identities need the levels, their sum and their gap in float range.
    if all(map(math.isfinite, (levels.s_ask + levels.s_bid, levels.s_ask - levels.s_bid))):
        ulp = np.spacing(max(abs(levels.s_ask), abs(levels.s_bid), levels.delta))
        assert abs(0.5 * (levels.s_ask + levels.s_bid) - levels.s_mid) <= 2.0 * ulp
        assert abs((levels.s_ask - levels.s_bid) - levels.delta) <= 4.0 * ulp
        assert abs(levels.delta - math.hypot(s11 - s22, 2.0 * abs(s12))) <= 4.0 * np.spacing(
            levels.delta
        )
    batch = eigenprices_batch([s11], [s22], [s12])
    scalar = np.array([levels.s_ask, levels.s_bid, levels.s_mid, levels.delta])
    assert np.array_equal(np.concatenate(batch).view(np.int64), scalar.view(np.int64))


# The diagonal elements whose halves 0.5*s are exact: 0, and |s| >= 2^-1021.
exact_halves = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda s: s == 0.0 or abs(s) >= 2.0**-1021
)


@settings(max_examples=300, deadline=None)
@given(exact_halves, exact_halves, elements, elements)
@example(1.7e308, 1.7e308, 0.0, 0.0)  # the sum passes float range
@example(-1.7e308, -1.7e308, 1.0, 0.0)
@example(1.7e308, -1.7e308, 0.0, 1.7e308)  # and the difference
@example(-1.7e308, 1.7e308, 1.7e308, 1.7e308)
@example(2.0**-1021, -(2.0**-1021), 5e-324, 0.0)
@example(-0.0, 0.0, -0.0, 0.0)
def test_halves_of_the_diagonal_give_eigenprices_mid_and_spread_property(s11, s22, re12, im12):
    # the simulation kernels form the levels from h11 = s11/2 and h22 = s22/2
    s12 = complex(re12, im12)
    levels = eigenprices(PriceOperator2(s11, s22, s12))
    h11, h22 = 0.5 * s11, 0.5 * s22
    assert (h11 + h22).hex() == levels.s_mid.hex()
    assert (2.0 * _norm2(h11 - h22, _modulus(s12))).hex() == levels.delta.hex()


def test_delta_invariant_under_coupling_phase():
    rng = np.random.default_rng(19)
    base = PriceOperator2(101.3, 100.9, 0.07 + 0.02j)
    ref = eigenprices(base).delta
    for theta in rng.uniform(0.0, 2.0 * math.pi, 50):
        rotated = PriceOperator2(base.s11, base.s22, base.s12 * np.exp(1j * theta))
        assert eigenprices(rotated).delta == pytest.approx(ref, rel=1e-12)


def test_rejects_non_finite_elements():
    with pytest.raises(ValidationError):
        PriceOperator2(math.nan, 1.0, 0.0)
    with pytest.raises(ValidationError):
        PriceOperator2(1.0, math.inf, 0.0)
    with pytest.raises(ValidationError):
        PriceOperator2(1.0, 1.0, complex(math.nan, 0.0))


@pytest.mark.parametrize(
    "elements",
    [
        (10**400, 0.0), (1.0, 0.0, 10**400), (True, 0.0), (1.0, 0.0, np.True_),
        (1.0, None), (1.0, "one"), ("1", 2.0, "0.5"), (1.0, b"2"),
    ],
    ids=["huge_int", "huge_int_coupling", "bool", "numpy_bool", "none", "text", "numeric_text",
         "numeric_bytes"],
)
def test_rejects_elements_that_are_not_finite_numbers(elements):
    with pytest.raises(ValidationError):
        PriceOperator2(*elements)


def test_accepts_numpy_scalars_as_python_numbers():
    op = PriceOperator2(np.float32(1.5), np.int64(2), np.complex64(0.5 - 0.25j))
    assert (op.s11, op.s22, op.s12) == (1.5, 2.0, 0.5 - 0.25j)
    assert (type(op.s11), type(op.s22), type(op.s12)) == (float, float, complex)


def test_coupling_modulus_past_float_range_matches_batch():
    # abs() of this finite coupling raises OverflowError; the levels are
    # the batch's +-inf instead.
    s12 = complex(1.28e308, 1.28e308)
    levels = eigenprices(PriceOperator2(1.0, 1.0, s12))
    batch = eigenprices_batch([1.0], [1.0], [s12])
    assert (levels.s_ask, levels.s_bid, levels.s_mid, levels.delta) == tuple(
        float(v[0]) for v in batch
    )
    assert levels.s_ask == levels.delta == -levels.s_bid == math.inf

