from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from mstlength.errors import InexactDivisionError
from mstlength.exactpoly import IntPolynomial, balanced_digits, binomial, decimal_string, digit_bits

from .oracles import evaluate_by_fractions, multiply_by_one_minus_t

small_polys = st.builds(
    IntPolynomial, st.lists(st.integers(-50, 50), max_size=6)
)


def test_poly_eval_k32_integrand_at_one():
    p = IntPolynomial([4, -6, 0, 0, 3, 0, -1])
    assert p.evaluate(1) == 0


def test_poly_eval_zero_and_rational_point():
    assert IntPolynomial().evaluate(Fraction(3, 7)) == 0
    assert IntPolynomial([1, -1]).evaluate(Fraction(1, 3)) == Fraction(2, 3)


wide_polys = st.builds(
    IntPolynomial, st.lists(st.integers(-(2**70), 2**70), max_size=12)
)
sample_points = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1)]),
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@given(wide_polys, sample_points)
def test_evaluate_matches_fraction_horner(p, t):
    value = p.evaluate(t)
    assert isinstance(value, Fraction)
    assert value == evaluate_by_fractions(p.coefficients, t)


@given(sample_points)
def test_evaluate_zero_polynomial(t):
    value = IntPolynomial().evaluate(t)
    assert isinstance(value, Fraction) and value == 0


def test_evaluate_at_a_denominator_of_a_million():
    t = Fraction(-999_999, 10**6)
    p = IntPolynomial([3, 0, -2**65, 7])
    assert p.evaluate(t) == 3 - 2**65 * t**2 + 7 * t**3


def test_integrate_unit_interval_examples():
    assert IntPolynomial([4, -6, 0, 0, 3, 0, -1]).integrate_unit_interval() == Fraction(51, 35)
    assert IntPolynomial([1, -1]).integrate_unit_interval() == Fraction(1, 2)
    assert IntPolynomial([2, -3, 0, 1]).integrate_unit_interval() == Fraction(3, 4)


def test_divide_by_one_minus_t_examples():
    k3_integrand = IntPolynomial([2, -3, 0, 1])
    assert k3_integrand.divide_by_one_minus_t(2) == IntPolynomial([2, 1])
    assert k3_integrand.divide_by_one_minus_t(0) == k3_integrand
    assert IntPolynomial([1, -1]).divide_by_one_minus_t(1) == IntPolynomial([1])
    for k in range(7):
        assert IntPolynomial().divide_by_one_minus_t(k) == IntPolynomial()
    with pytest.raises(InexactDivisionError):
        IntPolynomial([1, 0, 1]).divide_by_one_minus_t(1)
    with pytest.raises(InexactDivisionError):
        IntPolynomial([1, -2, 1]).divide_by_one_minus_t(3)
    with pytest.raises(InexactDivisionError):
        IntPolynomial([2]).divide_by_one_minus_t(1)


def test_trailing_zeros_stripped():
    assert IntPolynomial([1, 2, 0, 0]) == IntPolynomial([1, 2])
    assert IntPolynomial([0]).is_zero
    assert IntPolynomial([0]).degree == -1


def test_one_minus_t_power_oracle():
    assert multiply_by_one_minus_t([1], 2) == [1, -2, 1]
    assert multiply_by_one_minus_t([2, 1], 2) == [2, -3, 0, 1]
    assert multiply_by_one_minus_t([5, 7], 0) == [5, 7]


@given(small_polys, st.integers(0, 6))
def test_divide_round_trip(q, k):
    product = IntPolynomial(multiply_by_one_minus_t(q.coefficients, k))
    assert product.divide_by_one_minus_t(k) == q


@given(small_polys, st.integers(0, 5))
def test_divide_refuses_when_p_of_one_is_not_zero(q, k):
    # q (1-t)^k divides k times; pass k + 1 meets q(1) != 0
    assume(q.evaluate(1) != 0)
    product = IntPolynomial(multiply_by_one_minus_t(q.coefficients, k))
    with pytest.raises(InexactDivisionError):
        product.divide_by_one_minus_t(k + 1)


@given(small_polys, small_polys)
def test_integration_is_linear(p, q):
    a, b = p.coefficients, q.coefficients
    summed = IntPolynomial(x + y for x, y in zip_longest(a, b, fillvalue=0))
    assert summed.integrate_unit_interval() == (
        p.integrate_unit_interval() + q.integrate_unit_interval()
    )


def test_binomial_examples():
    assert binomial(6, 2) == 15
    assert binomial(3, 3) == 1
    assert binomial(4, -1) == 0
    assert binomial(2, 5) == 0
    assert binomial(-2, 1) == 0


def test_binomial_product_identity():
    # C(m-k, m-i) C(m, k) = C(m, m-i) C(i, k) for 0 <= k <= i <= m <= 20
    for m in range(21):
        for i in range(m + 1):
            for k in range(i + 1):
                assert binomial(m - k, m - i) * binomial(m, k) == binomial(
                    m, m - i
                ) * binomial(i, k)


def test_alternating_weighted_binomial_sum_vanishes():
    # sum_k (-1)^k C(n, k) k = 0 for n >= 2 (equals -1 at n = 1)
    for n in range(2, 31):
        assert sum((-1) ** k * binomial(n, k) * k for k in range(n + 1)) == 0
    assert sum((-1) ** k * binomial(1, k) * k for k in range(2)) == -1


def test_decimal_string():
    assert decimal_string(Fraction(51, 35), 10) == "1.4571428571"
    assert decimal_string(Fraction(1, 2), 3) == "0.500"
    assert decimal_string(Fraction(-1, 3), 4) == "-0.3333"
    assert decimal_string(Fraction(5), 0) == "5"
    assert decimal_string(Fraction(1, 8), 2) == "0.13"


@pytest.mark.parametrize("bits", [64, 128, 192])
def test_balanced_digits_round_trip_at_both_digit_bounds(bits):
    low, high = -(1 << bits - 1), (1 << bits - 1) - 1
    rows = [[low], [high], [low, high, 0, low], [high, low, high, high], [0, 0, 0, high], [0, 0, 0, 0]]
    values = [sum(d << bits * j for j, d in enumerate(row)) for row in rows]
    for row, value in zip(rows, values):
        assert balanced_digits([value], bits, len(row)) == row
    # several values decode in turn, each to the same number of digits
    wide = [row + [0] * (4 - len(row)) for row in rows]
    assert balanced_digits(values, bits, 4) == [d for row in wide for d in row]


def test_balanced_digits_refuse_a_value_past_their_range():
    for bits in (64, 128):
        half = 1 << bits - 1
        for value, count in ((half, 1), (-half - 1, 1), (half << bits, 2), (1 << 2 * bits, 2)):
            with pytest.raises(OverflowError):
                balanced_digits([value], bits, count)
    # a bound's digits hold it and its negative, with the sign bit to spare
    assert [digit_bits(b) for b in (0, 1, (1 << 63) - 1, 1 << 63, (1 << 127) - 1, 1 << 127)] == [
        64, 64, 64, 128, 128, 192,
    ]
