"""Exact arithmetic carriers: rationals, integer polynomials and packed integers.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator).  Integer polynomials in one variable are dense coefficient
tuples.  A polynomial evaluated at 2^bits packs its coefficients into one int,
one balanced digit each, and ``balanced_digits`` reads them back.  No floating
point anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

import numpy as np

from .errors import InexactDivisionError


def binomial(a: int, b: int) -> int:
    """Counting binomial coefficient: C(a, b), and 0 whenever b < 0 or b > a.

    Total on all integer inputs so that out-of-domain terms in alternating
    sums vanish instead of raising.
    """
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def digit_bits(bound: int) -> int:
    """Bits of a balanced digit that holds every d with |d| <= ``bound``: the
    bound's bits and a sign bit, rounded up to whole 64-bit words."""
    return (bound.bit_length() + 64) // 64 * 64


def balanced_digits(values: list[int], bits: int, count: int) -> list[int]:
    """The ``count`` balanced base-2^bits digits of each value in turn.

    A value is read as sum_j d_j 2^(bits j) with every d_j in
    [-2^(bits-1), 2^(bits-1)), for bits a multiple of 64.  2^(bits-1) added to
    every digit makes it unsigned, and its top bit flipped back leaves it in
    two's complement, so the bytes of the values are int64 words, the top word
    of each digit signed.  A value that its digits cannot hold raises
    OverflowError.
    """
    words, size = bits // 64, bits // 8
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    raw = b"".join(((value + offset) ^ offset).to_bytes(size * count, "little") for value in values)
    table = np.frombuffer(raw, dtype="<u8").reshape(-1, words)
    digits = table[:, -1].view("<i8").astype(object)
    for k in range(words - 2, -1, -1):
        digits = (digits << 64) + table[:, k].astype(object)
    return digits.tolist()


class IntPolynomial:
    """Immutable dense polynomial with arbitrary-precision integer coefficients.

    ``coefficients[i]`` is the coefficient of t^i; trailing zeros are stripped
    so the zero polynomial has an empty coefficient tuple.  It evaluates,
    integrates over [0, 1] and divides by (1-t)^k: what the integrand needs.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coefficients == other.coefficients
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)})"

    def evaluate(self, t: int | Fraction) -> Fraction:
        """Exact value at a rational (or integer) point t = a/b.

        Horner's rule runs on b^d p(a/b) = sum c_i a^i b^(d-i) in integers,
        and the one Fraction is built at the end.
        """
        if self.is_zero:
            return Fraction(0)
        a, b = t.numerator, t.denominator
        acc, power = self.coefficients[-1], 1
        for c in reversed(self.coefficients[:-1]):
            power *= b
            acc = acc * a + c * power
        return Fraction(acc, power)

    def integrate_unit_interval(self) -> Fraction:
        """Exact integral over [0, 1]: sum of c_i / (i + 1)."""
        return sum((Fraction(c, i + 1) for i, c in enumerate(self.coefficients)), Fraction(0))

    def divide_by_one_minus_t(self, k: int) -> IntPolynomial:
        """Exact quotient by (1-t)^k; raises InexactDivisionError otherwise.

        p = q (1-t) exactly when p(1) = 0, and then q_i = p_0 + ... + p_i: each
        of the k passes keeps the prefix sums but the last, which is p(1).
        """
        coeffs = self.coefficients
        for done in range(k):
            sums = list(accumulate(coeffs))
            if sums and sums[-1]:
                raise InexactDivisionError(
                    f"(1-t)^{k} does not divide: pass {done + 1} leaves remainder {sums[-1]}"
                )
            coeffs = sums[:-1]
        return IntPolynomial(coeffs)


def decimal_string(value: Fraction, digits: int = 10) -> str:
    """Fixed-point decimal rendering of a rational, rounded half away from zero."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scaled = num * 10**digits
    q, r = divmod(scaled, den)
    if 2 * r >= den:
        q += 1
    if digits == 0:
        return f"{sign}{q}"
    whole, frac = divmod(q, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
