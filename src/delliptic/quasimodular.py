"""Eisenstein series, the q-derivative, and exact quasimodular fitting.

The ring of quasimodular forms is generated by the three Eisenstein series

    E2 = 1 - 24  sum sigma_1(d) q^d        (weight 2)
    E4 = 1 + 240 sum sigma_3(d) q^d        (weight 4)
    E6 = 1 - 504 sum sigma_5(d) q^d        (weight 6)

and is closed under q d/dq via the Ramanujan identities

    q E2' = (E2^2 - E4)/12,  q E4' = (E2 E4 - E6)/3,  q E6' = (E2 E6 - E4^2)/2.

`fit_quasimodular` decides, exactly, whether a truncated series lies in the
span of the monomials E2^a E4^b E6^c of weight <= max_weight, using all
coefficients q^0..q^N. With N strictly larger than the number of monomials
the system is overdetermined, so a successful fit is certified by the
held-out coefficients. A failure only certifies non-membership relative to
(max_weight, N), since a truncation can never refute membership at higher
weight; the refusal value therefore carries both parameters.

Every basis coefficient is an integer, so the fit runs on `linalg`'s
fraction-free engine: this module keeps one `linalg.System` of the basis
rows per (max_weight, N), the target enters as its integer numerators over
its one denominator, and the integer residual on every coefficient d = 0..N
is a fit's one acceptance test. Monomials in the span of earlier ones get 0.
Before listing a monomial, both fit entries refuse an odd max_weight, one
above FIT_WEIGHT_CEILING, and an order above divisors.TABLE_ORDER_CEILING.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .divisors import _require_at_least, require_order, sigma
from .linalg import System
from .series import QSeries, _over_common_denominator, format_rational

__all__ = [
    "FIT_WEIGHT_CEILING",
    "require_fit_weight",
    "QModMonomial",
    "QuasimodularFit",
    "NotQuasimodular",
    "FitResult",
    "eisenstein",
    "q_derivative",
    "quasimodular_basis",
    "fit_quasimodular",
]

_EISENSTEIN = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}

#: the largest max_weight a fit or basis accepts (the basis has ~max_weight^3 / 48
#: monomials): cold on a 2-vCPU Xeon VM the System of weight 20 (67) at order
#: 1024 takes 0.63-0.80 s at 25 MiB, that of weight 24 (102) at order 200 2.8 s
FIT_WEIGHT_CEILING = 20


def require_fit_weight(max_weight: int) -> None:
    """Raise TypeError unless max_weight is an integer, ValueError unless it
    is even and 0 <= max_weight <= FIT_WEIGHT_CEILING, naming the rule."""
    _require_at_least(max_weight, 0, "max_weight")
    if max_weight > FIT_WEIGHT_CEILING:
        raise ValueError(f"max_weight = {max_weight} exceeds the fit weight ceiling "
                         f"{FIT_WEIGHT_CEILING}")
    if max_weight % 2:
        raise ValueError(f"max_weight must be even, got {max_weight}")


@lru_cache(maxsize=None, typed=True)
def eisenstein(k: int, order: int) -> QSeries:
    """Normalized Eisenstein series E_k truncated at `order`, k in {2, 4, 6}.
    A non-integer order raises TypeError in every cache state (the cache
    keys each argument with its type)."""
    if k not in _EISENSTEIN:
        raise ValueError(f"k must be one of 2, 4, 6, got {k}")
    require_order(order)
    scale, power = _EISENSTEIN[k]
    return QSeries.from_function(
        order, lambda d: 1 if d == 0 else scale * sigma(power, d)
    )


def q_derivative(f: QSeries) -> QSeries:
    """q d/dq: the q^d coefficient becomes d times itself; order is kept."""
    return QSeries._reduced([d * x for d, x in enumerate(f.numerators)], f.denominator)


@dataclass(frozen=True)
class QModMonomial:
    """Exponent triple (a, b, c) standing for E2^a E4^b E6^c."""

    a: int
    b: int
    c: int

    @property
    def weight(self) -> int:
        return 2 * self.a + 4 * self.b + 6 * self.c

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.weight, self.a, self.b, self.c)

    def __str__(self) -> str:
        parts = [
            f"E{k}^{e}" if e > 1 else f"E{k}"
            for k, e in ((2, self.a), (4, self.b), (6, self.c))
            if e > 0
        ]
        return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def _monomial_series(a: int, b: int, c: int, order: int) -> QSeries:
    """E2^a E4^b E6^c to `order`: its cached predecessor times one Eisenstein
    series, so each monomial costs one product."""
    if c:
        return _monomial_series(a, b, c - 1, order) * eisenstein(6, order)
    if b:
        return _monomial_series(a, b - 1, 0, order) * eisenstein(4, order)
    if a:
        return _monomial_series(a - 1, 0, 0, order) * eisenstein(2, order)
    return QSeries.one(order)


def _monomials_up_to(max_weight: int) -> list[QModMonomial]:
    candidates = (
        QModMonomial(a, b, c)
        for a in range(max_weight // 2 + 1)
        for b in range(max_weight // 4 + 1)
        for c in range(max_weight // 6 + 1)
    )
    found = [m for m in candidates if m.weight <= max_weight]
    return sorted(found, key=QModMonomial.sort_key)


def quasimodular_basis(max_weight: int, order: int) -> list[tuple[QModMonomial, QSeries]]:
    """All monomials E2^a E4^b E6^c of weight <= max_weight, expanded to `order`.

    Requires order >= number of monomials, so downstream fits are
    overdetermined. The max_weight // 2 + 1 powers of E2 are among them, so an
    order below that many is refused before the ~max_weight^3 / 48 monomials
    are listed. A non-integer max_weight or order raises TypeError, before
    any cache is read.
    """
    require_fit_weight(max_weight)
    require_order(order)
    if max_weight // 2 + 1 > order:
        raise ValueError(
            f"order {order} is below the {max_weight // 2 + 1} powers of E2 "
            f"at weight {max_weight}"
        )
    monomials = _monomials_up_to(max_weight)
    if order < len(monomials):
        raise ValueError(
            f"order {order} is below the basis size {len(monomials)} "
            f"at weight {max_weight}"
        )
    return [(m, _monomial_series(m.a, m.b, m.c, order)) for m in monomials]


@lru_cache(maxsize=None)
def _fit_plan(max_weight: int, order: int) -> tuple[tuple[QModMonomial, ...], System]:
    """The monomials of weight <= max_weight and the System of their integer
    coefficient rows q^0..q^order, built once per (max_weight, order) and
    only for an order above the basis size. Every basis series has
    denominator 1, so its numerators are its coefficients."""
    basis = quasimodular_basis(max_weight, order)
    if order <= len(basis):
        raise ValueError(f"order {order} must strictly exceed the basis size {len(basis)}")
    rows = zip(*(expansion.numerators for _, expansion in basis))
    return tuple(m for m, _ in basis), System(rows)


@dataclass(frozen=True)
class QuasimodularFit:
    """Exact combination of weight-bounded monomials matching a series.

    `coefficients` holds only the nonzero entries, in monomial order, so the
    zero series fits as the empty combination.
    """

    max_weight: int
    order: int
    coefficients: tuple[tuple[QModMonomial, Fraction], ...]

    def as_dict(self) -> Mapping[QModMonomial, Fraction]:
        return dict(self.coefficients)

    def reconstruct(self, order: int | None = None) -> QSeries:
        """The fit re-summed in ints to `order` (default its own). Acceptance
        criterion 5 and the benchmark's `certify` gate compare it with the
        series; `fit_quasimodular` does not call it."""
        n = self.order if order is None else order
        weights, scale = _over_common_denominator([x for _, x in self.coefficients])
        total = [0] * (n + 1)
        for (monomial, _), weight in zip(self.coefficients, weights):
            expansion = _monomial_series(monomial.a, monomial.b, monomial.c, n)
            total = [t + weight * x for t, x in zip(total, expansion.numerators)]
        return QSeries._reduced(total, scale)

    def to_json_dict(self) -> dict:
        return {
            "monomials": [
                {"a": m.a, "b": m.b, "c": m.c, "coeff": format_rational(x)}
                for m, x in self.coefficients
            ],
            "max_weight": self.max_weight,
            "order": self.order,
        }


@dataclass(frozen=True)
class NotQuasimodular:
    """Certified non-membership relative to a weight bound and truncation order."""

    max_weight: int
    order: int

    def to_json_dict(self) -> dict:
        return {
            "not_quasimodular": {"max_weight": self.max_weight, "order": self.order}
        }


FitResult = Union[QuasimodularFit, NotQuasimodular]


def fit_quasimodular(f: QSeries, max_weight: int, order: int) -> FitResult:
    """Express f exactly in the weight-bounded monomial basis, or refuse.

    Solves the linear system over coefficients q^0..q^order in integers,
    against the System kept per (max_weight, order) (see the module
    docstring); a series shorter than `order` is refused first, before that
    System is built. The integer residual is the one acceptance test: an
    exact match on every one of those coefficients, including the held-out
    ones beyond the basis size, returns the System's solution as the fit,
    and a mismatch on any of them refuses. Monomials in the span of earlier
    ones get coefficient 0. An underdetermined call (order <= basis size) is
    a precondition failure (ValueError), raised before its System is built,
    and a non-integer max_weight or order is refused (TypeError) before any
    cache is read.
    """
    require_fit_weight(max_weight)
    require_order(order)
    if f.order < order:
        raise ValueError(f"series order {f.order} is below the fit order {order}")
    monomials, system = _fit_plan(max_weight, order)
    target = f.truncate(order)
    solution = system.solve(target.numerators, target.denominator)
    if solution is None:
        return NotQuasimodular(max_weight, order)
    return QuasimodularFit(
        max_weight,
        order,
        tuple((monomial, x) for monomial, x in zip(monomials, solution) if x != 0),
    )
