"""Divisor-power sums, the sigma-polynomial reader, and convolution identities.

sigma_k(d) = sum of a^k over the positive divisors a of d, so sigma_0(d) is
the number of divisors. Every closed form in the package is a sigma
polynomial, held as data: a Row {(j, k): c} means sum c d^j sigma_k(d), and
sigma_polynomial(row, d) is its one reader. A Row is read-only (item
assignment raises TypeError; a changed closed form is a new Row) and carries
its int kernel, built once with it: its monomials (j, k), its coefficients'
numerators over the lcm of their denominators, and that lcm. So reading a
row at d is one int multiply-add against the values d^j sigma_k(d) and one
Fraction.

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
cached, so a sweep to D builds each product once per power of two; each
product is one big-int multiplication (Kronecker substitution in
series). Divisor enumeration is trial division up to sqrt(d).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul
from types import MappingProxyType
from typing import Union

from .errors import crosscheck
from .series import QSeries, _over_common_denominator

__all__ = [
    "require_positive", "divisors", "sigma", "Row", "rows", "sigma_polynomial",
    "CLOSED_FORMS", "conv2", "conv2_weighted", "conv3",
]

F = Fraction


class Row(Mapping):
    """A read-only sigma polynomial {(j, k): c}, sum c d^j sigma_k(d), with
    its int kernel: `monomials` (the keys (j, k) in order), `numerators`
    (each c over `scale`) and `scale` (the lcm of the denominators)."""

    __slots__ = ("_terms", "monomials", "numerators", "scale")

    def __init__(self, terms: Mapping[tuple[int, int], Union[int, Fraction]]):
        terms = dict(terms)
        numerators, scale = _over_common_denominator(list(terms.values()))
        for name, value in (("_terms", terms), ("monomials", tuple(terms)),
                            ("numerators", tuple(numerators)), ("scale", scale)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Row is read-only")

    def __getitem__(self, key: tuple[int, int]) -> Union[int, Fraction]:
        return self._terms[key]

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __reduce__(self):
        return Row, (self._terms,)

    def __repr__(self) -> str:
        return f"Row({self._terms!r})"


def rows(
    table: Mapping[str, Mapping[tuple[int, int], Union[int, Fraction]]]
) -> Mapping[str, Row]:
    """Read-only {label: Row} from {label: {(j, k): c}}, kernels built once."""
    return MappingProxyType({label: Row(terms) for label, terms in table.items()})


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


def sigma_polynomial(row: Row, d: int) -> Fraction:
    """sum c d^j sigma_k(d) over the row {(j, k): c}, exactly, read through
    the row's kernel."""
    values = [d**j * sigma(k, d) for j, k in row.monomials]
    return Fraction(sum(map(mul, row.numerators, values)), row.scale)


#: convolution -> its closed form, the row its direct sum must equal
CLOSED_FORMS: Mapping[str, Row] = rows({
    "conv2": {(1, 1): F(-1, 2), (0, 1): F(1, 12), (0, 3): F(5, 12)},
    "conv2_weighted": {(2, 1): F(-1, 4), (1, 1): F(1, 24), (1, 3): F(5, 24)},
    "conv3": {
        (2, 1): F(1, 8), (1, 1): F(-1, 16), (0, 1): F(1, 192),
        (1, 3): F(-5, 32), (0, 3): F(5, 96), (0, 5): F(7, 192),
    },
})


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
