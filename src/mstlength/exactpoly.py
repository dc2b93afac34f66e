"""Exact arithmetic carriers: rationals and integer polynomials.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator).  Integer polynomials in one variable are dense coefficient
tuples.  No floating point anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import InexactDivisionError


def binomial(a: int, b: int) -> int:
    """Counting binomial coefficient: C(a, b), and 0 whenever b < 0 or b > a.

    Total on all integer inputs so that out-of-domain terms in alternating
    sums vanish instead of raising.
    """
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


class IntPolynomial:
    """Immutable dense polynomial with arbitrary-precision integer coefficients.

    ``coefficients[i]`` is the coefficient of t^i; trailing zeros are stripped
    so the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls) -> IntPolynomial:
        return cls(())

    @classmethod
    def one(cls) -> IntPolynomial:
        return cls((1,))

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

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self.coefficients)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return IntPolynomial(summed)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coefficients)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> IntPolynomial:
        if k < 0:
            raise ValueError("negative polynomial power")
        result = IntPolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> IntPolynomial:
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coefficients)

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

    def divide_exact(self, divisor: IntPolynomial) -> IntPolynomial:
        """Exact quotient in Z[t]; raises InexactDivisionError otherwise.

        Long division over the rationals, then both the remainder and any
        non-integer quotient coefficient count as failures.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = [Fraction(c) for c in self.coefficients]
        dcoeffs = divisor.coefficients
        dlead = Fraction(dcoeffs[-1])
        ddeg = divisor.degree
        if self.degree < ddeg:
            if self.is_zero:
                return IntPolynomial.zero()
            raise InexactDivisionError(
                f"degree {self.degree} polynomial is not divisible by degree {ddeg}"
            )
        quotient = [Fraction(0)] * (self.degree - ddeg + 1)
        for i in range(len(quotient) - 1, -1, -1):
            q = remainder[i + ddeg] / dlead
            quotient[i] = q
            if q:
                for j, dc in enumerate(dcoeffs):
                    remainder[i + j] -= q * dc
        if any(r != 0 for r in remainder):
            raise InexactDivisionError("nonzero remainder in exact polynomial division")
        if any(q.denominator != 1 for q in quotient):
            raise InexactDivisionError("quotient is not an integer polynomial")
        return IntPolynomial(int(q) for q in quotient)


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
