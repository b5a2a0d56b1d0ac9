"""Divisor-power sums and their convolution identities.

sigma_k(d) = sum of a^k over the positive divisors a of d, tau(d) = number of
divisors. The three convolutions of sigma_1 over ordered compositions of d
admit closed forms in sigma_1, sigma_3, sigma_5:

    sum_{d1+d2=d}    s1(d1)s1(d2)        = (-d/2 + 1/12) s1(d) + 5/12 s3(d)
    sum_{d1+d2=d} d1 s1(d1)s1(d2)        = (-d^2/4 + d/24) s1(d) + 5d/24 s3(d)
    sum_{d1+d2+d3=d} s1(d1)s1(d2)s1(d3)  = (d^2/8 - d/16 + 1/192) s1(d)
                                           + (-5d/32 + 5/96) s3(d) + 7/192 s5(d)

These identities carry the whole assembly downstream, so every convolution is
evaluated BOTH by direct summation and by its closed form, and the two must
agree exactly (CrossCheckError otherwise). The direct sums are the int
coefficients of A^2, (DA)A and A^3 (A = sum s1(m)q^m, DA = sum m s1(m)q^m),
built to the next power of two >= d and cached: O(D^2) per sweep to D, not
O(D^3). Divisor enumeration is trial division up to sqrt(d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import crosscheck

__all__ = ["divisors", "sigma", "tau", "conv2", "conv2_weighted", "conv3"]


@lru_cache(maxsize=None)
def divisors(d: int) -> tuple[int, ...]:
    """Sorted positive divisors of d >= 1."""
    if d <= 0:
        raise ValueError(f"d must be a positive integer, got {d}")
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


@lru_cache(maxsize=None)
def _coefficients(name: str, n: int) -> tuple[int, ...]:
    """q^0..q^n of the product ``name`` sums: A*A, DA*A or (A*A)*A."""
    a = [0] + [sigma(1, m) for m in range(1, n + 1)]
    if name == "conv3":
        left = _coefficients("conv2", n)
    else:
        left = [m * s if name == "conv2_weighted" else s for m, s in enumerate(a)]
    return tuple(sum(left[i] * a[k - i] for i in range(k)) for k in range(n + 1))


def _direct(name: str, d: int) -> int:
    return _coefficients(name, 1 << (d - 1).bit_length())[d]


@lru_cache(maxsize=None)
def conv2(d: int) -> int:
    """sum over d1+d2=d (d1,d2 >= 1) of sigma_1(d1)sigma_1(d2)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    direct = _direct("conv2", d)
    closed = (Fraction(-d, 2) + Fraction(1, 12)) * sigma(1, d) + Fraction(5, 12) * sigma(3, d)
    return crosscheck("conv2", d, direct=direct, closed=closed)


@lru_cache(maxsize=None)
def conv2_weighted(d: int) -> int:
    """sum over d1+d2=d of d1*sigma_1(d1)sigma_1(d2)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    direct = _direct("conv2_weighted", d)
    closed = (Fraction(-d * d, 4) + Fraction(d, 24)) * sigma(1, d) + Fraction(5, 24) * d * sigma(3, d)
    return crosscheck("conv2_weighted", d, direct=direct, closed=closed)


@lru_cache(maxsize=None)
def conv3(d: int) -> int:
    """sum over d1+d2+d3=d (all >= 1) of sigma_1(d1)sigma_1(d2)sigma_1(d3)."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    direct = _direct("conv3", d)
    closed = (
        (Fraction(d * d, 8) - Fraction(d, 16) + Fraction(1, 192)) * sigma(1, d)
        + (Fraction(-5 * d, 32) + Fraction(5, 96)) * sigma(3, d)
        + Fraction(7, 192) * sigma(5, d)
    )
    return crosscheck("conv3", d, direct=direct, closed=closed)
