"""Divisor-power sums, the sigma-polynomial reader, and convolution identities.

sigma_k(d) = sum of a^k over the positive divisors a of d, so sigma_0(d) is the
number of divisors. Every closed form in the package is a sigma polynomial,
held as data: a row {(j, k): c} means sum c d^j sigma_k(d), and
sigma_series(row, n), the row at every d <= n as one QSeries, is its one reader
(a value at d is a q^d coefficient of a held table). rows() makes each row a
read-only mapping (types.MappingProxyType: item assignment raises TypeError; a
changed closed form is a new row). sigma_series reads any such mapping: it puts
the coefficients over their lcm once, then sums int multiply-adds, reading each
sigma_k off _sigma_table, one divisor sieve per k (O(n log n), no trial
division), once every k is checked: the table cache would take 3.0 for 3.

The three convolutions of sigma_1 over ordered compositions of d have such
rows (CLOSED_FORMS):

    sum_{d1+d2=d}    s1(d1)s1(d2)        = (-d/2 + 1/12) s1(d) + 5/12 s3(d)
    sum_{d1+d2=d} d1 s1(d1)s1(d2)        = (-d^2/4 + d/24) s1(d) + 5d/24 s3(d)
    sum_{d1+d2+d3=d} s1(d1)s1(d2)s1(d3)  = (d^2/8 - d/16 + 1/192) s1(d)
                                           + (-5d/32 + 5/96) s3(d) + 7/192 s5(d)

Below its range (d = 1, and for conv3 also d = 2) each convolution is the
empty sum 0, and so is its row; d < 1 raises ValueError and a non-integer d
(operator.index) TypeError through require_positive, the package's one d
check. These identities carry the whole assembly downstream, so every
convolution is evaluated BOTH by direct summation and by its row, compared per
table (CrossCheckError at the first d where they differ). The direct sums are
the int coefficients of the QSeries products A*A, (DA)*A and (A*A)*A (A = sum
s1(m)q^m, DA = sum m s1(m)q^m), one held table per convolution (growing_table,
the package's table cache), rebuilt only for a d past its end, at
table_order(d): the next power of two >= d and the one order rule of every sum
over d in the package. A wrong entry fails every read of its table. Each
product is one big-int multiplication (Kronecker substitution in series). The
per-d sigma and divisors are trial division up to sqrt(d), valid past the
ceiling; A reads sigma, so each identity also compares it with the sieve.
TABLE_ORDER_CEILING, a power of two, is the one budget of every d and order:
table_order refuses a larger d before any table is built, and the isogeny
counts, class_series, sigma_series, run_verification and the quasimodular fits
refuse a larger d, order or max_d up front (require_within_ceiling, require_order).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, wraps
from math import isqrt
from operator import add, index
from types import MappingProxyType
from typing import Union

from .errors import crosscheck_series
from .series import QSeries, _over_common_denominator

__all__ = [
    "require_positive", "divisors", "sigma", "rows", "sigma_series", "CLOSED_FORMS",
    "TABLE_ORDER_CEILING", "require_within_ceiling", "require_order", "table_order",
    "growing_table", "convolution_table", "conv2", "conv2_weighted", "conv3",
]

F = Fraction


def rows(
    table: Mapping[str, Mapping[tuple[int, int], Union[int, Fraction]]]
) -> Mapping[str, Mapping[tuple[int, int], Union[int, Fraction]]]:
    """Read-only {label: read-only {(j, k): c}} from {label: {(j, k): c}}."""
    return MappingProxyType({label: MappingProxyType(dict(row)) for label, row in table.items()})


def _require_at_least(value: int, least: int, name: str) -> None:
    """Raise TypeError unless value is an integer (operator.index), and
    ValueError unless value >= least, naming the argument."""
    try:
        index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def require_positive(d: int, name: str = "d") -> None:
    """Raise TypeError unless d is an integer, ValueError unless d >= 1."""
    _require_at_least(d, 1, name)


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


@lru_cache(maxsize=None, typed=True)
def sigma(k: int, d: int) -> int:
    """sigma_k(d): sum of k-th powers of the divisors of d. The cache keys
    each argument with its type, so 3.0 misses the entry of 3 and is refused
    (TypeError) in every cache state."""
    _require_at_least(k, 0, "k")
    return sum(a**k for a in divisors(d))


def sigma_series(row: Mapping[tuple[int, int], Union[int, Fraction]], n: int) -> QSeries:
    """sum_{d=1..n} (sum c d^j sigma_k(d) over the row {(j, k): c}) q^d to
    q^n (require_order), over the coefficients' lcm, each sigma_k read to q^n
    off its sieve (_sigma_table) once every k is checked; n = 0 reads none."""
    require_order(n)
    numerators, scale = _over_common_denominator(list(row.values()))
    for _, k in row:
        _require_at_least(k, 0, "k")
    sums = [0] * (n + 1)
    for c, (j, k) in zip(numerators, row) if n else ():
        sums = list(map(add, sums, (c * d**j * s for d, s in enumerate(_sigma_table(k, n)))))
    return QSeries._reduced(sums, scale)


#: convolution -> its closed form, the row its direct sum must equal
CLOSED_FORMS: Mapping[str, Mapping[tuple[int, int], Fraction]] = rows({
    "conv2": {(1, 1): F(-1, 2), (0, 1): F(1, 12), (0, 3): F(5, 12)},
    "conv2_weighted": {(2, 1): F(-1, 4), (1, 1): F(1, 24), (1, 3): F(5, 24)},
    "conv3": {
        (2, 1): F(1, 8), (1, 1): F(-1, 16), (0, 1): F(1, 192),
        (1, 3): F(-5, 32), (0, 3): F(5, 96), (0, 5): F(7, 192),
    },
})


#: the one budget of every order, the fit's included (the largest d, table and
#: fit order); cold on a 2-vCPU Xeon VM, the genus-3 class there takes
#: 0.06-0.12 s and a class series with its weight-20 fit there 0.65-0.75 s
TABLE_ORDER_CEILING = 1024


def require_within_ceiling(value: int, name: str = "d") -> None:
    """Raise ValueError if value > TABLE_ORDER_CEILING, naming both."""
    if value > TABLE_ORDER_CEILING:
        raise ValueError(f"{name} = {value} exceeds the table order ceiling {TABLE_ORDER_CEILING}")


def require_order(order: int, least: int = 0, name: str = "order") -> None:
    """Raise TypeError unless the order is an integer, ValueError unless
    least <= order <= TABLE_ORDER_CEILING, naming it."""
    _require_at_least(order, least, name)
    require_within_ceiling(order, name)


def table_order(d: int) -> int:
    """The order of the table read at 1 <= d <= TABLE_ORDER_CEILING: the next
    power of two >= d, so a growing_table grows at most once per power of two."""
    require_order(d, 1, "d")
    return 1 << (d - 1).bit_length()


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def growing_table(build):
    """Decorator: build(*key, n), a table to q^n, cached as the largest built
    per key. A read at (*key, d) past it builds the table at table_order(d) in
    its place (a build that raises holds nothing new). A read returns the held
    table, whose order may exceed table_order(d): a build that reads another
    table truncates it to q^n, as convolution_table does. cache_info() counts
    reads as lru_cache's does, and held tables as currsize."""
    held, counts = {}, Counter()

    @wraps(build)
    def read(*args):
        *key, d = args
        key, order = tuple(key), table_order(d)
        built = held.get(key, (0, None))
        counts["hits" if built[0] >= order else "misses"] += 1
        if built[0] < order:
            built = held[key] = order, build(*key, order)
        return built[1]

    def cache_clear() -> None:
        held.clear()
        counts.clear()

    read.cache_info = lambda: CacheInfo(counts["hits"], counts["misses"], None, len(held))
    read.cache_clear = cache_clear
    return read


@growing_table
def _sigma_table(k: int, n: int) -> tuple[int, ...]:
    """(sigma_k(0) = 0, sigma_k(1), ..., sigma_k(n)): a^k added at every multiple of a."""
    sums = [0] * (n + 1)
    for a in range(1, n + 1):
        power = a**k
        for m in range(a, n + 1, a):
            sums[m] += power
    return tuple(sums)


@growing_table
def _products(name: str, n: int) -> QSeries:
    """The product ``name`` sums to q^n, A*A, DA*A or (A*A)*A (int
    coefficients), checked whole against its closed row."""
    a = QSeries([0] + [sigma(1, m) for m in range(1, n + 1)])
    if name == "conv3":
        left = _products("conv2", n)
    elif name == "conv2_weighted":
        left = QSeries([m * s for m, s in enumerate(a.numerators)])
    else:
        left = a
    return crosscheck_series(name, direct=left * a, closed=sigma_series(CLOSED_FORMS[name], n))


def convolution_table(name: str, n: int) -> QSeries:
    """The checked product ``name`` to exactly q^n, read off its held table."""
    require_order(n, 1)
    table = _products(name, n)
    return table.truncate(n) if table.order > n else table


@lru_cache(maxsize=None)
def conv2(d: int) -> int:
    """sum over d1+d2=d (d1,d2 >= 1) of sigma_1(d1)sigma_1(d2)."""
    return _products("conv2", d).numerators[d]


@lru_cache(maxsize=None)
def conv2_weighted(d: int) -> int:
    """sum over d1+d2=d of d1*sigma_1(d1)sigma_1(d2)."""
    return _products("conv2_weighted", d).numerators[d]


@lru_cache(maxsize=None)
def conv3(d: int) -> int:
    """sum over d1+d2+d3=d (all >= 1) of sigma_1(d1)sigma_1(d2)sigma_1(d3)."""
    return _products("conv3", d).numerators[d]
