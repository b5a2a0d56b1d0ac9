"""Exact rationals and truncated power series in q.

Scalars are `fractions.Fraction` throughout: always in lowest terms with a
positive denominator, so equality is structural. A Fraction serializes to the
string "p/q" ("p" when the denominator is 1), which is exactly `str()`.

A QSeries is a formal power series truncated at a fixed order N. It holds the
integer numerators of q^0 .. q^N over one common denominator, in normal form:
the denominator is positive, shares no factor with every numerator at once,
and is 1 for the zero series. Equal series therefore hold equal integers, and
arithmetic runs on ints alone, reducing once per result. The product of
two series is one big-int multiplication: each numerator tuple is packed
into one int, a digit of fixed width per coefficient, and the product's
digits are its numerators (Kronecker substitution, _product). `coefficients`
reads the series out as a tuple of Fractions, built on each access.
Arithmetic between two series truncates to the smaller of the two orders;
this is deliberate, so routines that mix orders compare only the
coefficients both sides know. A series is built from int and Fraction
coefficients only: a float, a string or a Decimal raises TypeError
(from_json parses its strings first).

All values are immutable and all operations pure; instances are safe to
share across threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = ["QSeries", "parse_rational", "format_rational"]


#: "p/q" or "p": an optional sign and ASCII digits, then optionally "/" and digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction; anything that is not such
    a string, a zero q included, raises ValueError. Decimal points,
    exponents and digit separators are refused before any number is built."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text.strip()):
        raise ValueError(f'expected a rational string "p/q" or "p", got {text!r}')
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Scalar) -> str:
    """Serialize an exact scalar as "p/q" (or "p" when integral)."""
    return str(Fraction(value))


def _over_common_denominator(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """(numerators, L) with values[i] == numerators[i] / L, L the lcm of the
    denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The first n coefficients of the product of the int polynomials a and
    b (n = len(a) = len(b)), by Kronecker substitution.

    Each coefficient c_k is at most bound = n * max|a| * max|b| in absolute
    value, so with digits of w bytes, 2^(8w - 1) > bound, every c_k and every
    input lies strictly inside +-half (half = 2^(8w - 1)). An input packs as
    its digits x + half, less the constant bias of n digits half; the one
    product a(X) b(X) at X = 2^(8w) then holds c_k X^k, and adding the bias
    back makes the low n digits c_k + half, all in [0, X), read off without
    a carry.
    """
    n = len(a)
    bound = n * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * n
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * n, "little")

    def pack(xs: Sequence[int]) -> int:
        digits = b"".join([(x + half).to_bytes(width, "little") for x in xs])
        return int.from_bytes(digits, "little") - bias

    size = width * n
    low = (pack(a) * pack(b) + bias) & ((1 << (8 * size)) - 1)
    digits = low.to_bytes(size, "little")
    return [int.from_bytes(digits[i : i + width], "little") - half for i in range(0, size, width)]


class QSeries:
    """Truncated power series sum_{d=0..order} c_d q^d with rational
    coefficients c_d = numerators[d] / denominator."""

    __slots__ = ("order", "numerators", "denominator")

    def __init__(self, coefficients: Sequence[Scalar], order: int | None = None):
        values = list(coefficients)
        inexact = [c for c in values if not isinstance(c, (int, Fraction))]
        if inexact:
            raise TypeError(f"coefficients must be int or Fraction, got {inexact[0]!r}")
        if order is None:
            order = len(values) - 1
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        if len(values) != order + 1:
            raise ValueError(
                f"need exactly {order + 1} coefficients for order {order}, got {len(values)}"
            )
        # over the lcm of the denominators the integers are already coprime
        numerators, denominator = _over_common_denominator(values)
        self._set(tuple(numerators), denominator)

    def _set(self, numerators: tuple[int, ...], denominator: int) -> None:
        object.__setattr__(self, "order", len(numerators) - 1)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def _reduced(cls, numerators: Iterable[int], denominator: int) -> QSeries:
        """The series numerators / denominator (denominator > 0) in normal form."""
        numerators = tuple(numerators)
        common = gcd(denominator, *numerators)
        if common != 1:
            numerators = tuple(x // common for x in numerators)
            denominator //= common
        series = object.__new__(cls)
        series._set(numerators, denominator)
        return series

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> QSeries:
        return cls((0,) * (order + 1), order)

    @classmethod
    def one(cls, order: int) -> QSeries:
        return cls((1,) + (0,) * order, order)

    @classmethod
    def from_function(cls, order: int, fn: Callable[[int], Scalar]) -> QSeries:
        """Series whose q^d coefficient is fn(d), for d = 0..order."""
        return cls([fn(d) for d in range(order + 1)], order)

    # -- access ----------------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients of q^0 .. q^order as Fractions."""
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    def coefficient(self, d: int) -> Fraction:
        if not 0 <= d <= self.order:
            raise ValueError(f"coefficient index {d} outside 0..{self.order}")
        return Fraction(self.numerators[d], self.denominator)

    def truncate(self, order: int) -> QSeries:
        """Drop coefficients above `order` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        return QSeries._reduced(self.numerators[: order + 1], self.denominator)

    def is_zero(self) -> bool:
        return not any(self.numerators)

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: QSeries, op) -> QSeries:
        """op (add or sub) coefficient-wise over the lcm of the denominators;
        zip stops at the shorter tuple, which truncates to the smaller order."""
        scale = lcm(self.denominator, other.denominator)
        ka, kb = scale // self.denominator, scale // other.denominator
        return QSeries._reduced(
            [op(x * ka, y * kb) for x, y in zip(self.numerators, other.numerators)], scale
        )

    def __add__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._combine(other, add)

    def __sub__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._combine(other, sub)

    def __neg__(self) -> QSeries:
        return QSeries._reduced([-x for x in self.numerators], self.denominator)

    def __mul__(self, other: Union[QSeries, Scalar]) -> QSeries:
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            return QSeries._reduced(
                _product(self.numerators[: n + 1], other.numerators[: n + 1]),
                self.denominator * other.denominator,
            )
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return QSeries._reduced([x * p for x in self.numerators], self.denominator * q)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> QSeries:
        return self.__mul__(other)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.order, self.numerators, self.denominator))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coefficients[:5])
        tail = ", ..." if self.order > 4 else ""
        return f"QSeries(order={self.order}, [{head}{tail}])"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[str]:
        """JSON form: the coefficient list as exact "p/q" strings."""
        return [format_rational(c) for c in self.coefficients]

    @classmethod
    def from_json(cls, items: Iterable[str]) -> QSeries:
        return cls([parse_rational(s) for s in items])
