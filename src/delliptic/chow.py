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
from dual-basis label to an int or Fraction (`loci` returns read-only ones);
solve_class checks each of its labels against the dual basis, once.

Every operation is pure and the registry is read-only (MappingProxyTypes
down to the q_factors, tuples below them): a test replaces a table only
through the `plant` fixture of tests/conftest.py, which empties every
lru_cache of the package around the swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .linalg import BlockRows, solve_unique
from .series import format_rational

__all__ = [
    "ChowSpace",
    "ChowClass",
    "SPACES",
    "space",
    "basis_labels",
    "q_basis_labels",
    "pairing",
    "pairing_number",
    "solve_class",
    "to_q_class_basis",
    "FORGET_M21_TO_M2",
    "pushforward_m21_to_m2",
]

F = Fraction


@dataclass(frozen=True)
class ChowSpace:
    """A registered moduli space: graded basis, pairings, substack factors."""

    space_id: str
    dimension: int
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
        dimension=2,
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
        dimension=3,
        bases={1: m13_div, 2: m13_curves},
        pairings={(2, 1): m13_table},
        q_factors={},
    )

    # ---- M2: divisors Delta_0, Delta_1; curves Delta_00, Delta_01 ----
    spaces["M2"] = ChowSpace(
        space_id="M2",
        dimension=3,
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
        dimension=4,
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
        dimension=6,
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

    @classmethod
    def from_coefficients(
        cls, space_id: str, degree: int, values: Mapping[str, Fraction | int]
    ) -> ChowClass:
        """Class on the registered basis from a label -> value mapping."""
        labels = basis_labels(space_id, degree)
        unknown = set(values) - set(labels)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in basis of {space_id}")
        return cls(
            space_id,
            degree,
            labels,
            tuple(F(values.get(label, 0)) for label in labels),
        )

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


def _position(labels: tuple[str, ...], label: str, space_id: str, degree: int) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise ValueError(
            f"label {label!r} not in the degree-{degree} basis of {space_id}"
        ) from None


def _registered_block(
    sp: ChowSpace, degree_a: int, degree_b: int
) -> tuple[tuple[tuple[Fraction, ...], ...], bool]:
    """(table, flipped): the stored table pairing the two degrees, and whether
    it is registered as (degree_b, degree_a); unpaired degrees raise
    ValueError."""
    if (degree_a, degree_b) in sp.pairings:
        return sp.pairings[degree_a, degree_b], False
    if (degree_b, degree_a) in sp.pairings:
        return sp.pairings[degree_b, degree_a], True
    raise ValueError(
        f"degrees {degree_a} and {degree_b} are not paired on {sp.space_id}"
    )


def _pairing_block(
    sp: ChowSpace, degree_a: int, degree_b: int
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[tuple[Fraction, ...], ...]]:
    """(labels_a, labels_b, table), table[i][j] the stored intersection number
    of labels_a[i] and labels_b[j]. A block registered the other way round
    is transposed; unpaired degrees raise ValueError."""
    table, flipped = _registered_block(sp, degree_a, degree_b)
    return sp.bases[degree_a], sp.bases[degree_b], tuple(zip(*table)) if flipped else table


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


def solve_class(
    space_id: str, degree: int, profile: Mapping[str, Fraction | int]
) -> ChowClass:
    """The unique degree-`degree` class with the prescribed dual pairings.

    `profile` is any mapping from dual-basis label to an int or Fraction
    intersection number (the loci build read-only ones); other numbers raise
    TypeError. Every label must lie in the complementary-degree basis, and
    the induced exact linear system must be uniquely solvable; a singular or
    inconsistent system raises the corresponding linalg error.
    """
    sp = space(space_id)
    dual_degree = sp.dimension - degree
    table, flipped = _registered_block(sp, degree, dual_degree)
    dual_labels = sp.bases[dual_degree]
    # one row per profile label: its numbers against the basis, read off the
    # stored block in place (a column of it unless it is registered flipped)
    order = tuple(_position(dual_labels, label, space_id, dual_degree) for label in profile)
    values = list(profile.values())
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise TypeError(f"profile numbers must be int or Fraction, got {values!r}")
    solution = solve_unique(BlockRows(table, order, not flipped), values)
    return ChowClass(space_id, degree, sp.bases[degree], tuple(solution))


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


def pushforward_m21_to_m2(c: ChowClass) -> ChowClass:
    """Pushforward of a substack-basis M21 degree-2 class under the
    point-forgetting map, onto the substack divisor classes of M2.

    Every surface the map keeps (Xi_1, Delta_11) has the automorphism order
    of its image divisor (Delta_0, Delta_1) in q_factors, so on substack
    classes the map still has degree 1: only the labels change. A class on
    any other basis, the upper-case one included, raises ValueError.
    """
    if (c.space_id, c.degree, c.labels) != ("M21", 2, q_basis_labels("M21", 2)):
        raise ValueError("pushforward needs an M21 degree-2 class on the substack basis")
    totals = dict.fromkeys(q_basis_labels("M2", 1), F(0))
    for label, coeff in zip(space("M21").bases[2], c.coefficients):
        image = FORGET_M21_TO_M2[label]
        if image is not None:
            totals[image.lower()] += coeff
    return ChowClass("M2", 1, tuple(totals), tuple(totals.values()))
