"""Exact rationals and truncated power series in q.

Scalars are `fractions.Fraction` throughout: always in lowest terms with a
positive denominator, so equality is structural. A Fraction serializes to the
string "p/q" ("p" when the denominator is 1), which is exactly `str()`.

A QSeries is a formal power series truncated at a fixed order N, held as the
coefficient vector of q^0 .. q^N. Arithmetic between two series truncates to
the smaller of the two orders; this is deliberate, so routines that mix
orders compare only the coefficients both sides know.

All values are immutable and all operations pure; instances are safe to
share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = ["Fraction", "QSeries", "parse_rational", "format_rational"]


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction."""
    return Fraction(text.strip())


def format_rational(value: Scalar) -> str:
    """Serialize an exact scalar as "p/q" (or "p" when integral)."""
    return str(Fraction(value))


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(numerators, L) with values[i] == numerators[i] / L, L the lcm of the
    denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


class QSeries:
    """Truncated power series sum_{d=0..order} c_d q^d with Fraction coefficients."""

    __slots__ = ("order", "coefficients")

    def __init__(self, coefficients: Sequence[Scalar], order: int | None = None):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need exactly {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", coeffs)

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

    def coefficient(self, d: int) -> Fraction:
        if not 0 <= d <= self.order:
            raise ValueError(f"coefficient index {d} outside 0..{self.order}")
        return self.coefficients[d]

    def truncate(self, order: int) -> QSeries:
        """Drop coefficients above `order` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return QSeries(self.coefficients[: order + 1], order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries(
            [self.coefficients[d] + other.coefficients[d] for d in range(n + 1)], n
        )

    def __sub__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> QSeries:
        return QSeries([-c for c in self.coefficients], self.order)

    def __mul__(self, other: Union[QSeries, Scalar]) -> QSeries:
        if isinstance(other, QSeries):
            # integer numerators over one common denominator per factor,
            # divided once per coefficient; b is reversed, so b[n - d:] lines
            # up with a[:d + 1] in the q^d term
            n = min(self.order, other.order)
            a, scale_a = _over_common_denominator(self.coefficients[: n + 1])
            b, scale_b = _over_common_denominator(other.coefficients[n::-1])
            scale = scale_a * scale_b
            return QSeries(
                [Fraction(sum(map(mul, a[: d + 1], b[n - d :])), scale)
                 for d in range(n + 1)],
                n,
            )
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self.coefficients], self.order)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> QSeries:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> QSeries:
        if exponent < 0:
            raise ValueError("negative powers are not defined for truncated series")
        result = QSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash((self.order, self.coefficients))

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
