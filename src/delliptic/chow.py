"""Boundary bases, intersection pairings, and the pairing-based class solver.

Five moduli spaces are registered, each with its graded boundary basis and
the exact intersection numbers between bases of complementary codimension:

  M12  moduli of 2-pointed genus-1 curves (dim 2)
  M13  moduli of 3-pointed genus-1 curves (dim 3)
  M2   moduli of genus-2 curves (dim 3)
  M21  moduli of 1-pointed genus-2 curves (dim 4)
  M3   moduli of genus-3 curves (dim 6)

Upper-case labels (Delta_*, Xi_*, Gamma_*) denote pushforwards of fundamental
classes under the boundary gluing maps; lower-case labels are the
corresponding substack classes, smaller by the order of the automorphism
group of the stable graph (delta_0 = Delta_0 / 2, and for the binodal
delta_00 the factor is 8). A substack label is always its basis label
lower-cased (Delta_01a -> delta_01a, Xi_1 -> xi_1), so only the conversion
factors (q_factors) are registered. The M3
codimension-2 basis (lambda^2, ..., kappa_2) is already written in substack
terms: lower-casing keeps its labels and its conversion factors are all 1.

Where only part of a basis or pairing is ever needed, only that part is
registered (M13 carries four codimension-2 curve classes against the five
boundary divisors; M21 carries the single divisor Delta_1 against three
curve classes Gamma_(i)). The solver refuses anything not resolvable from
the stored numbers: unlisted intersection numbers are never fabricated.

An intersection profile, the numbers a class is solved from, is a mapping
from dual-basis label to an int or Fraction (`loci` returns read-only ones).
Its labels, in their order, pick the rows of the class system: row r pairs
the class basis with the r-th label. One `linalg.System` per (space, degree,
profile labels), built on first use, checks each label against the dual
basis and is factorised once; solve_class reads one class off it, and
solve_class_series every class of a profile table at once, one series per
basis label. `loci` solves each table-backed family this way and reads its
per-d classes off a ClassSeries; only m2e still calls solve_class per d.

Every operation is pure and the registry is read-only (MappingProxyTypes
down to the q_factors, tuples below them): a test replaces a table only
through the `plant` fixture of tests/conftest.py, which empties every
lru_cache of the package around the swap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .linalg import System, require_unique, solve_unique
from .series import QSeries, format_rational

__all__ = [
    "ChowSpace",
    "ChowClass",
    "ClassSeries",
    "SPACES",
    "space",
    "basis_labels",
    "q_basis_labels",
    "pairing",
    "pairing_number",
    "solve_class",
    "solve_class_series",
    "to_q_class_basis",
    "FORGET_M21_TO_M2",
    "pushforward_m21_to_m2",
]

F = Fraction


@dataclass(frozen=True)
class ChowSpace:
    """A registered moduli space: graded basis, pairings, substack factors."""

    space_id: str
    bases: Mapping[int, tuple[str, ...]]
    # (degree_a, degree_b) -> row-major matrix over (basis_a x basis_b)
    pairings: Mapping[tuple[int, int], tuple[tuple[Fraction, ...], ...]]
    # degree -> upper label -> stable-graph automorphism order
    q_factors: Mapping[int, Mapping[str, int]]

    def __post_init__(self):
        for name in ("bases", "pairings", "q_factors"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))


def _read_only(table: Mapping) -> Mapping:
    """A MappingProxyType copy of `table`, its inner mappings read-only too."""
    return MappingProxyType({key: _read_only(value) if isinstance(value, Mapping) else value
                             for key, value in table.items()})


def _build_registry() -> dict[str, ChowSpace]:
    spaces: dict[str, ChowSpace] = {}

    # ---- M12: divisors Delta_0 (irreducible nodal), Delta_1 (reducible) ----
    spaces["M12"] = ChowSpace(
        space_id="M12",
        bases={1: ("Delta_0", "Delta_1")},
        pairings={
            (1, 1): (
                (F(0), F(1)),
                (F(1), F(-1, 24)),
            )
        },
        q_factors={},
    )

    # ---- M13: five boundary divisors; four curve classes ----
    # Delta_1_S puts the marked points of S on the rational component;
    # Delta_01_S additionally makes the genus-1 component nodal; Delta_11_S
    # is the three-component chain with the points of S on the rational tail.
    m13_div = (
        "Delta_0",
        "Delta_1_{1,2}",
        "Delta_1_{1,3}",
        "Delta_1_{2,3}",
        "Delta_1_{1,2,3}",
    )
    m13_curves = (
        "Delta_01_{1,2}",
        "Delta_01_{1,3}",
        "Delta_11_{1,2}",
        "Delta_11_{1,3}",
    )
    # rows follow m13_curves, columns follow m13_div
    m13_table = (
        (F(0), F(-1), F(0), F(0), F(1)),
        (F(0), F(0), F(-1), F(0), F(1)),
        (F(1), F(0), F(0), F(0), F(-1, 24)),
        (F(1), F(0), F(0), F(0), F(-1, 24)),
    )
    spaces["M13"] = ChowSpace(
        space_id="M13",
        bases={1: m13_div, 2: m13_curves},
        pairings={(2, 1): m13_table},
        q_factors={},
    )

    # ---- M2: divisors Delta_0, Delta_1; curves Delta_00, Delta_01 ----
    spaces["M2"] = ChowSpace(
        space_id="M2",
        bases={1: ("Delta_0", "Delta_1"), 2: ("Delta_00", "Delta_01")},
        pairings={
            # rows Delta_0, Delta_1 x columns Delta_00, Delta_01
            (1, 2): (
                (F(-4), F(1)),
                (F(2), F(-1, 12)),
            )
        },
        q_factors={
            1: {"Delta_0": 2, "Delta_1": 2},
            2: {"Delta_00": 8, "Delta_01": 2},
        },
    )

    # ---- M21: the five-dimensional middle pairing, Delta_1 vs Gamma_(i) ----
    m21_mid = ("Delta_00", "Delta_01a", "Delta_01b", "Xi_1", "Delta_11")
    m21_table = (
        (F(0), F(0), F(0), F(-4), F(2)),
        (F(0), F(1), F(-1), F(1), F(0)),
        (F(0), F(-1), F(1), F(0), F(-1, 12)),
        (F(-4), F(1), F(0), F(1, 12), F(0)),
        (F(2), F(0), F(-1, 12), F(0), F(1, 288)),
    )
    spaces["M21"] = ChowSpace(
        space_id="M21",
        bases={
            1: ("Delta_1",),
            2: m21_mid,
            3: ("Gamma_(5)", "Gamma_(6)", "Gamma_(11)"),
        },
        pairings={
            (2, 2): m21_table,
            (1, 3): ((F(1), F(0), F(-1, 24)),),
        },
        q_factors={
            2: {
                "Delta_00": 8,
                "Delta_01a": 2,
                "Delta_01b": 2,
                "Xi_1": 2,
                "Delta_11": 2,
            }
        },
    )

    # ---- M3: codim 2 basis vs the seven boundary surfaces Delta_[i] ----
    m3_codim2 = (
        "lambda^2",
        "lambda*delta_0",
        "lambda*delta_1",
        "delta_0^2",
        "delta_0*delta_1",
        "delta_1^2",
        "kappa_2",
    )
    m3_surfaces = (
        "Delta_[1]",
        "Delta_[4]",
        "Delta_[5]",
        "Delta_[6]",
        "Delta_[8]",
        "Delta_[10]",
        "Delta_[11]",
    )
    # rows follow m3_surfaces, columns follow m3_codim2
    m3_table = (
        (F(0), F(0), F(0), F(0), F(4), F(-3), F(1)),
        (F(0), F(0), F(0), F(8), F(-4), F(2), F(0)),
        (F(0), F(-1, 12), F(1, 24), F(-2), F(7, 12), F(-1, 12), F(0)),
        (F(0), F(0), F(-1, 24), F(0), F(-1, 2), F(1, 12), F(0)),
        (F(0), F(-1, 12), F(1, 24), F(-11, 6), F(1, 2), F(-1, 24), F(1, 24)),
        (F(0), F(0), F(-1, 24), F(0), F(-1, 2), F(1, 8), F(1, 24)),
        (F(1, 288), F(1, 24), F(-1, 288), F(1, 2), F(-1, 24), F(1, 288), F(0)),
    )
    spaces["M3"] = ChowSpace(
        space_id="M3",
        bases={2: m3_codim2, 4: m3_surfaces},
        pairings={(4, 2): m3_table},
        # the codim-2 basis is already in substack terms
        q_factors={2: {label: 1 for label in m3_codim2}},
    )
    return spaces


SPACES: Mapping[str, ChowSpace] = MappingProxyType(_build_registry())


def space(space_id: str) -> ChowSpace:
    try:
        return SPACES[space_id]
    except KeyError:
        raise ValueError(f"unknown space {space_id!r}") from None


def basis_labels(space_id: str, degree: int) -> tuple[str, ...]:
    sp = space(space_id)
    try:
        return sp.bases[degree]
    except KeyError:
        raise ValueError(f"no degree-{degree} basis registered on {space_id}") from None


def q_basis_labels(space_id: str, degree: int) -> tuple[str, ...]:
    sp = space(space_id)
    factors = sp.q_factors.get(degree)
    if factors is None:
        raise ValueError(
            f"no substack conversion registered for {space_id} degree {degree}"
        )
    return tuple(label.lower() for label in sp.bases[degree])


@dataclass(frozen=True)
class ChowClass:
    """Exact coefficient vector against a fixed ordered label basis."""

    space_id: str
    degree: int
    labels: tuple[str, ...]
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.coefficients):
            raise ValueError("labels and coefficients must have equal length")

    def coefficient(self, label: str) -> Fraction:
        try:
            return self.coefficients[self.labels.index(label)]
        except ValueError:
            raise ValueError(f"label {label!r} not in this class's basis") from None

    def to_json_dict(self) -> dict:
        return {
            "space": self.space_id,
            "degree": self.degree,
            "coeffs": {
                label: format_rational(c)
                for label, c in zip(self.labels, self.coefficients)
            },
        }


@dataclass(frozen=True)
class ClassSeries:
    """sum_d c_d q^d for classes c_d on one basis, held as one QSeries per
    label, all to q^order. It reads like a QSeries, coefficient(d) being the
    ChowClass c_d, so errors.crosscheck_series compares two of them."""

    space_id: str
    degree: int
    labels: tuple[str, ...]
    series: tuple[QSeries, ...]

    @property
    def order(self) -> int:
        return self.series[0].order

    def coefficient(self, d: int) -> ChowClass:
        return ChowClass(self.space_id, self.degree, self.labels,
                         tuple(s.coefficient(d) for s in self.series))

    def truncate(self, order: int) -> ClassSeries:
        return replace(self, series=tuple(s.truncate(order) for s in self.series))


def _position(labels: tuple[str, ...], label: str, space_id: str, degree: int) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise ValueError(
            f"label {label!r} not in the degree-{degree} basis of {space_id}"
        ) from None


def _pairing_block(
    sp: ChowSpace, degree_a: int, degree_b: int
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[tuple[Fraction, ...], ...]]:
    """(labels_a, labels_b, table), table[i][j] the stored intersection number
    of labels_a[i] and labels_b[j]. A block registered the other way round
    is transposed; unpaired degrees raise ValueError."""
    if (degree_a, degree_b) in sp.pairings:
        table = sp.pairings[degree_a, degree_b]
    elif (degree_b, degree_a) in sp.pairings:
        table = tuple(zip(*sp.pairings[degree_b, degree_a]))
    else:
        raise ValueError(f"degrees {degree_a} and {degree_b} are not paired on {sp.space_id}")
    return sp.bases[degree_a], sp.bases[degree_b], table


def pairing_number(
    space_id: str, label_a: str, degree_a: int, label_b: str, degree_b: int
) -> Fraction:
    """Stored intersection number of two basis classes."""
    labels_a, labels_b, table = _pairing_block(space(space_id), degree_a, degree_b)
    row = table[_position(labels_a, label_a, space_id, degree_a)]
    return row[_position(labels_b, label_b, space_id, degree_b)]


def pairing(a: ChowClass, b: ChowClass) -> Fraction:
    """Bilinear extension of the stored pairing tables."""
    if a.space_id != b.space_id:
        raise ValueError("cannot pair classes on different spaces")
    sp = space(a.space_id)
    if a.labels != sp.bases.get(a.degree) or b.labels != sp.bases.get(b.degree):
        raise ValueError("pairing requires classes on the registered bases")
    _, _, table = _pairing_block(sp, a.degree, b.degree)
    return sum(
        (
            ca * cb * table[i][j]
            for i, ca in enumerate(a.coefficients)
            for j, cb in enumerate(b.coefficients)
        ),
        F(0),
    )


@lru_cache(maxsize=None)
def _class_system(space_id: str, degree: int, dual_labels: tuple[str, ...]) -> System:
    """The System whose row r pairs the degree-`degree` basis with
    dual_labels[r], read off the space's one stored block with that degree.
    A degree with no block and a label outside the dual basis raise
    ValueError."""
    sp = space(space_id)
    dual_degree = next((b if a == degree else a for a, b in sp.pairings if degree in (a, b)), None)
    if dual_degree is None:
        raise ValueError(f"degree {degree} is not paired on {space_id}")
    _, duals, table = _pairing_block(sp, degree, dual_degree)
    columns = tuple(zip(*table))
    return System(columns[_position(duals, label, space_id, dual_degree)] for label in dual_labels)


def solve_class(
    space_id: str, degree: int, profile: Mapping[str, Fraction | int]
) -> ChowClass:
    """The unique degree-`degree` class with the prescribed dual pairings.

    `profile` maps dual-basis labels to int or Fraction intersection numbers
    (the loci build read-only mappings); `solve_unique` refuses any other
    number with TypeError. Every label must lie in the complementary-degree
    basis, and the induced exact linear system must be uniquely solvable; a
    singular or inconsistent system raises the corresponding linalg error.
    """
    system = _class_system(space_id, degree, tuple(profile))
    solution = solve_unique(system, list(profile.values()))
    return ChowClass(space_id, degree, space(space_id).bases[degree], tuple(solution))


def solve_class_series(space_id: str, degree: int,
                       table: Mapping[str, QSeries]) -> Mapping[str, QSeries]:
    """solve_class at every q^d of {dual label: profile series}: read-only
    {basis label: class series}, with solve_class's System, checks and errors."""
    system = _class_system(space_id, degree, tuple(table))
    solution = require_unique(system, system.solve_series(list(table.values())))
    return MappingProxyType(dict(zip(space(space_id).bases[degree], solution)))


def to_q_class_basis(c: ChowClass) -> ChowClass:
    """Rewrite a class against substack (lower-case) labels.

    delta = Delta / |Aut| means each coefficient is multiplied by the
    registered automorphism order. Requires a factor for every basis label.
    """
    sp = space(c.space_id)
    if c.labels != sp.bases.get(c.degree):
        raise ValueError("conversion requires a class on the registered basis")
    factors = sp.q_factors.get(c.degree)
    if factors is None or any(label not in factors for label in c.labels):
        raise ValueError(
            f"no substack conversion registered for {c.space_id} degree {c.degree}"
        )
    return ChowClass(
        c.space_id,
        c.degree,
        tuple(label.lower() for label in c.labels),
        tuple(coeff * factors[label] for label, coeff in zip(c.labels, c.coefficients)),
    )


# The point-forgetting map contracts the three boundary surfaces whose generic
# member has the marked point on a collapsing component, and carries the other
# two onto the boundary divisors with degree 1. The one M21 -> M2 forget map:
# the pushforward and the genus-3 bridge contributions both read it.
FORGET_M21_TO_M2 = MappingProxyType({
    "Delta_00": None,
    "Delta_01a": None,
    "Delta_01b": None,
    "Xi_1": "Delta_0",
    "Delta_11": "Delta_1",
})


def pushforward_m21_to_m2(c: ChowClass | ClassSeries) -> ChowClass | ClassSeries:
    """Pushforward of a substack-basis M21 degree-2 class, or of a ClassSeries
    of them, under the point-forgetting map onto the substack divisors of M2.

    Every surface the map keeps (Xi_1, Delta_11) has the automorphism order
    of its image divisor (Delta_0, Delta_1) in q_factors, so on substack
    classes the map still has degree 1: only the labels change. A class on
    any other basis, the upper-case one included, raises ValueError.
    """
    if (c.space_id, c.degree, c.labels) != ("M21", 2, q_basis_labels("M21", 2)):
        raise ValueError("pushforward needs an M21 degree-2 class on the substack basis")
    field = "series" if isinstance(c, ClassSeries) else "coefficients"
    zero = QSeries.zero(c.order) if field == "series" else F(0)
    totals = dict.fromkeys(q_basis_labels("M2", 1), zero)
    for label, value in zip(space("M21").bases[2], getattr(c, field)):
        image = FORGET_M21_TO_M2[label]
        if image is not None:
            totals[image.lower()] += value
    return replace(c, space_id="M2", degree=1, labels=tuple(totals),
                   **{field: tuple(totals.values())})
