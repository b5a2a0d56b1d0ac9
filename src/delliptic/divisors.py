"""Divisor-power sums, the sigma-polynomial reader, and convolution identities.

sigma_k(d) = sum of a^k over the positive divisors a of d, so sigma_0 = tau,
the number of divisors. Every closed form in the package is a sigma
polynomial, held as data: a row {(j, k): c} means sum c d^j sigma_k(d), and
sigma_polynomial(row, d) is its one reader: one series.dot of the row's
coefficients against the int values d^j sigma_k(d).

The three convolutions of sigma_1 over ordered compositions of d have such
rows (CLOSED_FORMS):

    sum_{d1+d2=d}    s1(d1)s1(d2)        = (-d/2 + 1/12) s1(d) + 5/12 s3(d)
    sum_{d1+d2=d} d1 s1(d1)s1(d2)        = (-d^2/4 + d/24) s1(d) + 5d/24 s3(d)
    sum_{d1+d2+d3=d} s1(d1)s1(d2)s1(d3)  = (d^2/8 - d/16 + 1/192) s1(d)
                                           + (-5d/32 + 5/96) s3(d) + 7/192 s5(d)

Below its range (d = 1, and for conv3 also d = 2) each convolution is the
empty sum 0, and so is its row; every d >= 1 is accepted, and d < 1 raises
ValueError through require_positive, the package's one d >= 1 check. These
identities carry the whole assembly downstream, so every convolution is
evaluated BOTH by direct summation and by its row, and the two must agree
exactly (CrossCheckError otherwise). The direct sums are the int
coefficients of the QSeries products A*A, (DA)*A and (A*A)*A (A = sum
s1(m)q^m, DA = sum m s1(m)q^m), built to the next power of two >= d and
cached: O(D^2) per sweep to D, not O(D^3). Divisor enumeration is trial
division up to sqrt(d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Mapping, Union

from .errors import crosscheck
from .series import QSeries, dot

__all__ = [
    "require_positive", "divisors", "sigma", "tau", "sigma_polynomial",
    "CLOSED_FORMS", "conv2", "conv2_weighted", "conv3",
]

F = Fraction

#: {(j, k): c}, the sigma polynomial sum c d^j sigma_k(d)
Row = Mapping[tuple[int, int], Union[int, Fraction]]


def require_positive(d: int) -> None:
    """Raise ValueError unless d >= 1."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")


@lru_cache(maxsize=None)
def divisors(d: int) -> tuple[int, ...]:
    """Sorted positive divisors of d >= 1."""
    require_positive(d)
    found = set()
    for a in range(1, isqrt(d) + 1):
        if d % a == 0:
            found.add(a)
            found.add(d // a)
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def sigma(k: int, d: int) -> int:
    """sigma_k(d): sum of k-th powers of the divisors of d."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return sum(a**k for a in divisors(d))


def tau(d: int) -> int:
    """Number of positive divisors of d."""
    return len(divisors(d))


def sigma_polynomial(row: Row, d: int) -> Fraction:
    """sum c d^j sigma_k(d) over the row {(j, k): c}, exactly; sigma_0 = tau."""
    return dot(list(row.values()), [d**j * sigma(k, d) for j, k in row])


#: convolution -> its closed form, the row its direct sum must equal
CLOSED_FORMS: dict[str, Row] = {
    "conv2": {(1, 1): F(-1, 2), (0, 1): F(1, 12), (0, 3): F(5, 12)},
    "conv2_weighted": {(2, 1): F(-1, 4), (1, 1): F(1, 24), (1, 3): F(5, 24)},
    "conv3": {
        (2, 1): F(1, 8), (1, 1): F(-1, 16), (0, 1): F(1, 192),
        (1, 3): F(-5, 32), (0, 3): F(5, 96), (0, 5): F(7, 192),
    },
}


@lru_cache(maxsize=None)
def _coefficients(name: str, n: int) -> tuple[int, ...]:
    """q^0..q^n of the product ``name`` sums: A*A, DA*A or (A*A)*A."""
    a = QSeries([0] + [sigma(1, m) for m in range(1, n + 1)])
    if name == "conv3":
        left = QSeries(_coefficients("conv2", n))
    elif name == "conv2_weighted":
        left = QSeries([m * s for m, s in enumerate(a.numerators)])
    else:
        left = a
    return (left * a).numerators


def _convolution(name: str, d: int) -> int:
    require_positive(d)
    direct = _coefficients(name, 1 << (d - 1).bit_length())[d]
    closed = sigma_polynomial(CLOSED_FORMS[name], d)
    return crosscheck(name, d, direct=direct, closed=closed)


@lru_cache(maxsize=None)
def conv2(d: int) -> int:
    """sum over d1+d2=d (d1,d2 >= 1) of sigma_1(d1)sigma_1(d2)."""
    return _convolution("conv2", d)


@lru_cache(maxsize=None)
def conv2_weighted(d: int) -> int:
    """sum over d1+d2=d of d1*sigma_1(d1)sigma_1(d2)."""
    return _convolution("conv2_weighted", d)


@lru_cache(maxsize=None)
def conv3(d: int) -> int:
    """sum over d1+d2+d3=d (all >= 1) of sigma_1(d1)sigma_1(d2)sigma_1(d3)."""
    return _convolution("conv3", d)
