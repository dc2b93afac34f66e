from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from mstlength.errors import InexactDivisionError
from mstlength.exactpoly import (
    BivariatePolynomial,
    IntPolynomial,
    binomial,
    decimal_string,
)

from .oracles import evaluate_by_fractions

small_polys = st.builds(
    IntPolynomial, st.lists(st.integers(-50, 50), max_size=6)
)


def test_poly_eval_k32_integrand_at_one():
    p = IntPolynomial([4, -6, 0, 0, 3, 0, -1])
    assert p.evaluate(1) == 0


def test_poly_eval_zero_and_rational_point():
    assert IntPolynomial.zero().evaluate(Fraction(3, 7)) == 0
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
    value = IntPolynomial.zero().evaluate(t)
    assert isinstance(value, Fraction) and value == 0


def test_evaluate_at_a_denominator_of_a_million():
    t = Fraction(-999_999, 10**6)
    p = IntPolynomial([3, 0, -2**65, 7])
    assert p.evaluate(t) == 3 - 2**65 * t**2 + 7 * t**3


def test_integrate_unit_interval_examples():
    assert IntPolynomial([4, -6, 0, 0, 3, 0, -1]).integrate_unit_interval() == Fraction(51, 35)
    assert IntPolynomial([1, -1]).integrate_unit_interval() == Fraction(1, 2)
    assert IntPolynomial([2, -3, 0, 1]).integrate_unit_interval() == Fraction(3, 4)


def test_divide_exact_examples():
    k3_integrand = IntPolynomial([2, -3, 0, 1])
    one_minus_t_sq = IntPolynomial([1, -2, 1])
    assert k3_integrand.divide_exact(one_minus_t_sq) == IntPolynomial([2, 1])
    assert IntPolynomial([1, -1]).divide_exact(IntPolynomial([1, -1])) == IntPolynomial([1])
    with pytest.raises(InexactDivisionError):
        IntPolynomial([1, 0, 1]).divide_exact(IntPolynomial([1, -1]))
    with pytest.raises(InexactDivisionError):
        IntPolynomial([1]).divide_exact(IntPolynomial([2]))
    with pytest.raises(ZeroDivisionError):
        IntPolynomial([1]).divide_exact(IntPolynomial.zero())


def test_trailing_zeros_stripped():
    assert IntPolynomial([1, 2, 0, 0]) == IntPolynomial([1, 2])
    assert IntPolynomial([0]).is_zero
    assert IntPolynomial([0]).degree == -1


def test_pow_and_shift():
    assert IntPolynomial([1, -1]) ** 2 == IntPolynomial([1, -2, 1])
    assert IntPolynomial([1]).shift(3) == IntPolynomial([0, 0, 0, 1])
    assert IntPolynomial([1, 1]) ** 0 == IntPolynomial.one()


@given(small_polys, small_polys)
def test_divide_round_trip(q, d):
    if d.is_zero:
        return
    assert (d * q).divide_exact(d) == q


@given(small_polys, small_polys)
def test_integration_is_linear(p, q):
    assert (p + q).integrate_unit_interval() == (
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


def test_bivariate_eval_and_partial():
    x = BivariatePolynomial({(1, 0): 1})
    assert x.evaluate(2, 99) == 2
    tutte_k3 = BivariatePolynomial({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert tutte_k3.evaluate(2, 3) == 9
    assert BivariatePolynomial().evaluate(5, 5) == 0
    assert tutte_k3.partial_x() == BivariatePolynomial({(1, 0): 2, (0, 0): 1})
    assert BivariatePolynomial({(0, 0): 7}).partial_x().is_zero
    assert BivariatePolynomial({(3, 2): 1}).partial_x() == BivariatePolynomial({(2, 2): 3})


def test_bivariate_drops_zero_terms():
    assert BivariatePolynomial({(1, 1): 0}).is_zero


def test_decimal_string():
    assert decimal_string(Fraction(51, 35), 10) == "1.4571428571"
    assert decimal_string(Fraction(1, 2), 3) == "0.500"
    assert decimal_string(Fraction(-1, 3), 4) == "-0.3333"
    assert decimal_string(Fraction(5), 0) == "5"
    assert decimal_string(Fraction(1, 8), 2) == "0.13"
