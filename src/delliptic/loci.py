"""Locus classes of d-elliptic curves in genus 2 and 3, assembled exactly.

The degree-d elliptic locus on a moduli space of curves is the cycle swept
out by curves admitting a degree-d cover of a genus-1 curve (compactified by
admissible covers). Its class is pinned down by intersecting against the
boundary dual basis: every dual class is moved into a boundary divisor,
where the intersection with the locus decomposes into finitely many cover
topologies, each contributing a product of a lower-genus cover count, an
intersection number from the registered pairing tables, and a local
multiplicity.

Every assembled profile but one is computed twice, once from per-topology
contribution sums over the counting oracles and once from its closed form,
and the two must agree exactly. The fixed-target profile (m2e) is read
directly off the isogeny count and conv2, so it is checked through its
class alone. Every solved class is compared against its closed form in the
substack basis. Each comparison goes through errors.crosscheck, which raises
CrossCheckError naming the route that disagrees; these checks are the
package's defense against transcription errors in the pairing tables.

Every closed form is data, not code: a row {(j, k): c} meaning
sum c d^j sigma_k(d) (sigma_0 the divisor count), read by the one reader
divisors.sigma_polynomial. The class rows sit in FAMILIES; the profile rows,
the chain-winding total, the two-marked cover class and the two
triple-branch sums sit in CLOSED_FORMS. The profile rows are written in
sigma directly, so the closed route reads no convolution table. Every row
is a read-only divisors.Row carrying its int kernel, in read-only tables;
FAMILIES stays a dict, as the benchmark's tracer wraps the functions in it.

Every profile is a read-only mapping (types.MappingProxyType) from
dual-basis label to Fraction, and its readers index it directly. A family's
space and degree are declared once, in FAMILIES; chow.solve_class checks
each profile label against that space's dual basis.

Cover topologies are labelled by the pair of boundary strata containing the
stabilized source and the marked target; the three types feeding the genus-3
product surfaces (product_surfaces_m3) are D1_D13 (a marked genus-2 cover
glued to an elliptic tail, 24 labellings of the branch points), D11_D14 (a
two-marked elliptic bridge between a pair of isogenies, 24 labellings) and
D1_D12 (the separating-boundary source carries a genus-2 cover of the
elliptic tail itself, summed over the degree splitting, with multiplicity 2
for the contracted bridge and 6 labellings). Each topology route is one
pass over the label maps saying where each dual is realized.

Every per-term sum of a route (the D1_D12 sum over the degree splitting,
the chain windings over a | d) is one series.dot: int multiply-adds over the
terms' common denominator, then one Fraction per route value. What does not
depend on d is read once: the bridge term's pairing numbers
(_bridge_sections). What two profiles share at one d is computed once per
d: the chain windings (m2 and m21) and the splitting weights (m21 and the
split sum).

The M13 (2, 1) pairing table has one reader, _bridge_sections, and it reads
only the columns of the M13 divisors that realise an M21 dual
(_M21_DUAL_IN_M13): Delta_0, Delta_1_{2,3}, Delta_1_{1,2,3} and
Delta_1_{1,3}. No M21 dual is realised in Delta_1_{1,2}, so that column's
four entries, and that entry of DOUBLE_PAIR_PROFILE_M13, reach no route: a
wrong one fails no check, and the mutation census in the tests pins them.

The census also points each entry of the routes' label maps at every other
label of its basis. Nine changes survive. Three are in _M21_DUAL_IN_M13:
Delta_01a -> Delta_1_{1,2,3} and Delta_01b -> Delta_1_{2,3}, since the
bridge term is 0 at both (2x - y/12 = 0 at Delta_1_{1,2,3}) and both
profiles are conv2; and Xi_1 -> Delta_1_{1,2}, since the bridge sums over
both section curves {1,2} and {1,3}. Six retarget the Delta_1 entry of
_M12_DIVISOR_PULLBACK among the four reducible M13 divisors, at each of
which the chain windings are 0 (total_ramification_profile_m13 meets only
Delta_0).

All functions are pure in d, and every cache is an lru_cache holding
read-only values (profiles and windings are MappingProxyTypes, classes
frozen); lru_cache is thread-safe, so the d-sweep is safe to parallelize,
at worst computing one cold entry twice. The caches are not keyed by the
registered tables, so a test swaps a table only through the `plant` fixture
of tests/conftest.py, which empties them around the swap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import isqrt
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .chow import (
    FORGET_M21_TO_M2,
    ChowClass,
    pairing_number,
    pushforward_m21_to_m2,
    q_basis_labels,
    solve_class,
    to_q_class_basis,
)
from .covers import count_dd22, count_dd2222, count_pointed_isogenies
from .divisors import Row, conv2, divisors, require_positive, rows, sigma, sigma_polynomial
from .errors import crosscheck
from .quasimodular import FitResult, fit_quasimodular
from .series import QSeries, dot

__all__ = [
    "pointed_cover_profile_m12",
    "pointed_cover_class_m12",
    "total_ramification_profile_m13",
    "DOUBLE_PAIR_PROFILE_M13",
    "boundary_profile_m2",
    "delliptic_class_m2",
    "delliptic_class_m2_closed",
    "fixed_target_profile_m2",
    "fixed_target_class_m2",
    "boundary_profile_m21",
    "delliptic_class_m21",
    "delliptic_class_m21_closed",
    "product_surfaces_m3",
    "boundary_profile_m3",
    "delliptic_class_m3",
    "triple_branch_chain_sum",
    "triple_branch_split_sum",
    "triple_branch_cancellation",
    "CLOSED_FORMS",
    "FAMILIES",
    "closed_class",
    "family_labels",
    "class_in_family",
    "coefficient_series",
    "CERTIFICATION_WEIGHT",
    "certify_quasimodularity",
]

F = Fraction


#: object -> {label: row}, every closed form of this module but the class rows
#: in FAMILIES; a profile row is checked as "object[label]", the m12 class as
#: "pointed_cover_class_m12", a triple-branch row as "triple_branch_<label>_sum"
CLOSED_FORMS: Mapping[str, Mapping[str, Row]] = MappingProxyType({
    "pointed_cover_class_m12": rows({
        "Delta_0": {(1, 1): F(1, 24), (0, 1): F(-1, 24)},
        "Delta_1": {(1, 1): 1, (0, 1): -1},
    }),
    "boundary_profile_m2": rows({
        "Delta_00": {(1, 1): 4, (0, 1): -4},
        "Delta_01": {(1, 1): -1, (0, 1): F(1, 6), (0, 3): F(5, 6)},
    }),
    "boundary_profile_m21": rows({
        "Delta_00": {(1, 1): 4, (0, 1): -4},
        "Delta_01a": {(1, 1): F(-1, 2), (0, 1): F(1, 12), (0, 3): F(5, 12)},
        "Delta_01b": {(1, 1): F(-1, 2), (0, 1): F(1, 12), (0, 3): F(5, 12)},
        "Xi_1": {(1, 1): F(-1, 24), (0, 1): F(1, 24)},
        "Delta_11": {(1, 1): F(1, 48), (0, 1): F(-1, 288), (0, 3): F(-5, 288)},
    }),
    "boundary_profile_m3": rows({
        "windings": {(1, 3): 48, (0, 1): -48},
        "Delta_[1]": {(1, 1): 96, (0, 1): -96},
        "Delta_[4]": {(1, 3): 24, (1, 1): -96, (0, 1): 72},
        "Delta_[5]": {(2, 1): -12, (1, 1): 14, (0, 1): -2, (1, 3): 10, (0, 3): -10},
        "Delta_[6]": {},
        "Delta_[8]": {(2, 1): -3, (1, 1): F(-13, 2), (0, 1): 2, (1, 3): F(5, 2), (0, 3): 5},
        "Delta_[10]": {(1, 1): -24, (0, 1): 4, (0, 3): 20},
        "Delta_[11]": {
            (2, 1): 3, (1, 1): -1, (0, 1): F(1, 24),
            (1, 3): F(-15, 4), (0, 3): F(5, 6), (0, 5): F(7, 8),
        },
    }),
    "triple_branch": rows({
        "chain": {(1, 1): F(1, 6), (0, 1): F(1, 3), (1, 0): F(-1, 2)},
        "split": {(1, 1): -1, (0, 1): F(1, 12), (0, 3): F(5, 12), (1, 0): F(1, 2)},
    }),
})


def _closed(name: str, d: int) -> dict[str, Fraction]:
    """The closed forms CLOSED_FORMS[name] at d, by label."""
    return {label: sigma_polynomial(row, d) for label, row in CLOSED_FORMS[name].items()}


def closed_class(family: str, d: int) -> ChowClass:
    """One family's closed-form class at d, read off its rows in FAMILIES."""
    require_positive(d)
    space_id, degree, _, _, rows = FAMILIES[family]
    labels = q_basis_labels(space_id, degree)
    values = tuple(sigma_polynomial(rows[label], d) for label in labels)
    return ChowClass(space_id, degree, labels, values)


def _solved_class(family: str, d: int) -> ChowClass:
    """One family's class at d: its profile solved against the pairing
    table, in the substack basis, and equal to its closed form."""
    space_id, degree, _, profile, _ = FAMILIES[family]
    solved = to_q_class_basis(solve_class(space_id, degree, profile(d)))
    return crosscheck(f"class[{family}]", d, solver=solved, closed=closed_class(family, d))


# ---------------------------------------------------------------------------
# auxiliary loci on M12 and M13
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def pointed_cover_profile_m12(d: int) -> Mapping[str, Fraction]:
    """Intersection numbers of the locus of genus-1 covers carrying two
    marked points over one target point, against the M12 divisors.

    The irreducible-nodal divisor meets it in the pointed isogenies, of which
    there are (d-1)sigma_1(d); the reducible divisor misses it entirely.
    """
    require_positive(d)
    return MappingProxyType({"Delta_0": F((d - 1) * sigma(1, d)), "Delta_1": F(0)})


@lru_cache(maxsize=None)
def pointed_cover_class_m12(d: int) -> ChowClass:
    """The M12 class of the two-marked cover locus: (d-1)sigma_1(d) (Delta_0/24 + Delta_1).

    Solved from its intersection profile and checked against the closed form.
    """
    solved = solve_class("M12", 1, pointed_cover_profile_m12(d))
    closed = ChowClass.from_coefficients("M12", 1, _closed("pointed_cover_class_m12", d))
    return crosscheck("pointed_cover_class_m12", d, solver=solved, closed=closed)


@lru_cache(maxsize=None)
def total_ramification_profile_m13(a: int) -> Mapping[str, Fraction]:
    """Intersection numbers on M13 of the locus of genus-1 covers of a line,
    totally ramified at two marked points and simply at a third.

    Meets the irreducible-nodal divisor in the 2(a^2 - 1) doubly totally
    ramified pencils (count_dd22) and misses every reducible divisor.
    """
    require_positive(a)
    values = {"Delta_0": F(count_dd22(a))}
    for s in ("{1,2}", "{1,3}", "{2,3}", "{1,2,3}"):
        values[f"Delta_1_{s}"] = F(0)
    return MappingProxyType(values)


#: Intersection numbers on M13 of the glued genus-0 double-pair cover locus
#: (two pairs of points with equal images, ramified to orders a and b, one
#: pair identified to a node). It meets the two reducible divisors that keep
#: the simple branch point on the genus-1 part, once each, whatever (a, b):
#: so every pair has this one profile, and the double-chain sums reduce to
#: one integer splitting weight per d (_splitting_weights).
DOUBLE_PAIR_PROFILE_M13 = MappingProxyType({
    "Delta_0": F(0),
    "Delta_1_{1,2}": F(0),
    "Delta_1_{1,3}": F(0),
    "Delta_1_{2,3}": F(1),
    "Delta_1_{1,2,3}": F(1),
})


# ---------------------------------------------------------------------------
# genus 2, unpointed
# ---------------------------------------------------------------------------

# Forgetting the third marked point pulls the M12 boundary divisors back to
# these M13 boundary divisors.
_M12_DIVISOR_PULLBACK = MappingProxyType({
    "Delta_0": ("Delta_0",),
    "Delta_1": ("Delta_1_{1,2}", "Delta_1_{1,2,3}"),
})


@lru_cache(maxsize=None)
def _chain_windings(d: int) -> Mapping[str, Fraction]:
    """Type (Delta_0, Delta_0) contribution per M13 divisor: chains of
    rational curves wound a times around an irreducible nodal target,
    weighted by multiplicity m per divisor splitting d = a*m. Each label's
    sum over a | d is one series.dot; the m2 and m21 profiles both read it,
    so it runs once per d."""
    profiles = [total_ramification_profile_m13(a) for a in divisors(d)]
    weights = [d // a for a in divisors(d)]
    return MappingProxyType(
        {label: dot([p[label] for p in profiles], weights) for label in profiles[0]}
    )


# The two M2 dual curves, both realized in the irreducible-nodal boundary
# (whose interior is M12), by the M12 divisor each one meets.
_M2_DUAL_IN_M12 = MappingProxyType({"Delta_00": "Delta_0", "Delta_01": "Delta_1"})


@lru_cache(maxsize=None)
def boundary_profile_m2(d: int) -> Mapping[str, Fraction]:
    """Intersection numbers of the genus-2 d-elliptic locus with the two
    boundary curve classes of M2.

    Assembled from the per-topology contributions, both duals realized in
    the irreducible-nodal boundary, and checked against the closed forms
    4(d-1)sigma_1(d) and 2*conv2(d), both written in sigma.
    """
    require_positive(d)
    closed = _closed("boundary_profile_m2", d)

    m12 = pointed_cover_profile_m12(d)
    windings = _chain_windings(d)
    for dual, label in _M2_DUAL_IN_M12.items():
        # bridge covers (x2 multiplicity), chain covers, double-chain covers
        value = (
            2 * m12[label]
            + sum(windings[m13] for m13 in _M12_DIVISOR_PULLBACK[label])
            + 2 * conv2(d) * pairing_number("M12", label, 1, "Delta_0", 1)
        )
        crosscheck(f"boundary_profile_m2[{dual}]", d, topologies=value, closed=closed[dual])
    return MappingProxyType(closed)


@lru_cache(maxsize=None)
def delliptic_class_m2(d: int) -> ChowClass:
    """The genus-2 d-elliptic divisor class, solved from its boundary profile
    and verified against the closed form. Zero at d = 1."""
    return _solved_class("m2", d)


# ---------------------------------------------------------------------------
# genus 2, fixed elliptic target
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def fixed_target_profile_m2(d: int) -> Mapping[str, Fraction]:
    """Intersection numbers with the M2 divisors of the locus of genus-2
    curves covering one fixed general elliptic curve.

    The irreducible-nodal divisor meets the locus in pointed isogenies
    (order-d subgroups of the d-torsion with a nonzero element), the
    reducible divisor in ordered pairs of isogenies of degrees summing to d,
    2 * conv2(d). Pointed isogenies are double-counted by the sign
    involution, and each cover meets the test curve with multiplicity 2.
    The profile is checked through its class (class[m2e]).
    """
    require_positive(d)
    return MappingProxyType(
        {"Delta_0": F(count_pointed_isogenies(d)), "Delta_1": F(2 * conv2(d))}
    )


@lru_cache(maxsize=None)
def fixed_target_class_m2(d: int) -> ChowClass:
    """Class of genus-2 covers of a fixed elliptic curve, solved and verified."""
    return _solved_class("m2e", d)


# ---------------------------------------------------------------------------
# genus 2, one marked ramification point
# ---------------------------------------------------------------------------

# The five M21 dual surfaces realized inside the irreducible-nodal boundary
# (whose interior is M13); Delta_11 lives only in the separating boundary.
_M21_DUAL_IN_M13 = MappingProxyType({
    "Delta_00": "Delta_0",
    "Delta_01a": "Delta_1_{2,3}",
    "Delta_01b": "Delta_1_{1,2,3}",
    "Xi_1": "Delta_1_{1,3}",
})


@lru_cache(maxsize=None)
def _splitting_weights(d: int) -> tuple[int, int]:
    """(total, diagonal): m*b summed over the splittings a*m + b*n = d (all
    >= 1), and over those with a = b; total = conv2(d), reached from the
    divisor lists alone, never through sigma.

    For a winding a, the b-sum at multiplicity m runs over the divisors of
    d - a*m, so a's terms are one strided int dot of m = 1, 2, ... against
    the divisor sums of d - a, d - 2a, ...; that is the walk for a <= sqrt(d),
    and the larger windings, which admit only m < sqrt(d), are walked per m
    instead. An equal winding b = a divides d - a*m exactly when a | d, and
    then contributes a*m for m < d/a. The m21 profile and the split sum both
    read it, so it runs once per d.
    """
    divisor_sums = [0, *map(sum, map(divisors, range(1, d)))]
    small = isqrt(d - 1)
    total = 0
    for a in range(1, small + 1):
        total += sum(map(mul, range(1, d), divisor_sums[d - a:0:-a]))
    # the windings a > small have multiplicities m < d / small: one strided
    # sum per m over those windings
    for m in range(1, (d - 1) // (small + 1) + 1):
        total += m * sum(divisor_sums[d - (small + 1) * m:0:-m])
    diagonal = 0
    for a in divisors(d)[:-1]:
        k = d // a - 1
        diagonal += a * k * (k + 1) // 2
    return total, diagonal


@lru_cache(maxsize=None)
def _bridge_sections() -> Mapping[str, tuple[Fraction, Fraction]]:
    """M13 divisor label -> (the pairings of Delta_01_S with it, summed over
    the section curves S = {1,2}, {1,3}; the same sum for Delta_11_S): the
    bridge term's factors, which do not depend on d, read from the M13 table
    once."""

    def sections(curve: str, m13_label: str) -> Fraction:
        return sum(
            pairing_number("M13", f"{curve}_{s}", 2, m13_label, 1) for s in ("{1,2}", "{1,3}")
        )

    return MappingProxyType({
        label: (sections("Delta_01", label), sections("Delta_11", label))
        for label in _M21_DUAL_IN_M13.values()
    })


@lru_cache(maxsize=None)
def boundary_profile_m21(d: int) -> Mapping[str, Fraction]:
    """Intersection numbers of the marked genus-2 d-elliptic locus with the
    five boundary surface classes of M21.

    Duals realized in the irreducible-nodal boundary collect bridge, chain
    and double-chain cover contributions; duals realized in the separating
    boundary collect the isogeny-pair contribution against the diagonal
    decomposition. Every entry must match its closed form, and the two
    surfaces visible from both boundaries are computed both ways as well.
    """
    require_positive(d)
    closed = _closed("boundary_profile_m21", d)

    # bridge covers land on the section curves indexed {1,2} and {1,3},
    # carrying the solved two-marked cover class; double-chain covers carry
    # the splitting weight of d times the double-pair profile
    cover_class = pointed_cover_class_m12(d)
    x = cover_class.coefficient("Delta_0")
    y = cover_class.coefficient("Delta_1")
    sections = _bridge_sections()
    windings = _chain_windings(d)
    splitting, _ = _splitting_weights(d)

    # separating boundary: the diagonal decomposes as
    # [point x moduli] + [Delta_1 x point]; its numbers against the three
    # surfaces contained there reduce to the M12 pairing table
    diagonal_numbers = {
        "Delta_01a": F(1),  # moduli x point against point x moduli
        "Delta_01b": pairing_number("M12", "Delta_1", 1, "Delta_0", 1),
        "Delta_11": pairing_number("M12", "Delta_1", 1, "Delta_1", 1),
    }

    for dual, value in closed.items():
        routes = {"closed": value}
        if dual in _M21_DUAL_IN_M13:
            label = _M21_DUAL_IN_M13[dual]
            routes["nodal"] = (
                x * sections[label][0] + y * sections[label][1]
                + windings[label] + splitting * DOUBLE_PAIR_PROFILE_M13[label]
            )
        if dual in diagonal_numbers:
            routes["separating"] = conv2(d) * diagonal_numbers[dual]
        crosscheck(f"boundary_profile_m21[{dual}]", d, **routes)
    return MappingProxyType(closed)


@lru_cache(maxsize=None)
def delliptic_class_m21(d: int) -> ChowClass:
    """The marked genus-2 d-elliptic class, solved through the middle pairing
    and verified against the closed form; forgetting the marked point must
    recover the unpointed class."""
    solved = _solved_class("m21", d)
    crosscheck(
        "pushforward[m21]",
        d,
        pushforward=pushforward_m21_to_m2(solved),
        unpointed=delliptic_class_m2(d),
    )
    return solved


# ---------------------------------------------------------------------------
# genus 3
# ---------------------------------------------------------------------------

# Test surfaces in the separating boundary of M3, as products: an M21 surface
# class times a point, or an M21 curve class times the elliptic-tail factor.
_SURFACE_X_POINT = MappingProxyType({
    "Delta_[1]": "Delta_00",
    "Delta_[7]": "Delta_01b",
    "Delta_[8]": "Xi_1",
    "Delta_[10]": "Delta_01a",
    "Delta_[11]a": "Delta_11",
})
_CURVE_X_MODULI = MappingProxyType({
    "Delta_[5]": "Gamma_(5)",
    "Delta_[6]": "Gamma_(6)",
    "Delta_[11]b": "Gamma_(11)",
})

# Point-forgetting pushforwards feeding the bridge-type contribution.
# The surface classes are carried by the M21 -> M2 forget map
# (chow.FORGET_M21_TO_M2); the curve-class pushforwards are registered data
# validated by the closed-form checks on every assembled row (the per-surface
# map degrees have no other in-package derivation).
_FORGET_CURVE = MappingProxyType({
    "Gamma_(5)": "Delta_00",
    "Gamma_(6)": None,
    "Gamma_(11)": "Delta_01",
})


def _tail_cover_sum(d: int, profile, target: str | None) -> Fraction:
    """The D1_D12 term 12 sum_{d1 < d} sigma_1(d - d1) profile(d1)[target],
    one series.dot; 0 when the forget map contracts the surface (None)."""
    if target is None:
        return F(0)
    return 12 * dot(
        [profile(d1)[target] for d1 in range(1, d)],
        [sigma(1, d - d1) for d1 in range(1, d)],
    )


def product_surfaces_m3(d: int) -> Mapping[str, Fraction]:
    """Product surface label -> the D1_D13, D11_D14 and D1_D12 terms summed.

    A curve x moduli meets no D1_D13 cover: the projection collapses it.
    """
    require_positive(d)
    m21 = boundary_profile_m21(d)
    bridge = 24 * conv2(d)
    totals = {}
    for surface, dual in _SURFACE_X_POINT.items():
        totals[surface] = (
            24 * m21[dual]
            + bridge * pairing_number("M21", dual, 2, "Delta_01a", 2)
            + _tail_cover_sum(d, fixed_target_profile_m2, FORGET_M21_TO_M2[dual])
        )
    for surface, curve in _CURVE_X_MODULI.items():
        totals[surface] = (
            bridge * pairing_number("M21", "Delta_1", 1, curve, 3)
            + _tail_cover_sum(d, boundary_profile_m2, _FORGET_CURVE[curve])
        )
    return MappingProxyType(totals)


@lru_cache(maxsize=None)
def boundary_profile_m3(d: int) -> Mapping[str, Fraction]:
    """Intersection numbers of the genus-3 d-elliptic locus with the seven
    boundary surface classes of M3.

    Six rows are per-topology sums over the separating-boundary surfaces;
    the last surface class is recovered from the square of a fixed genus-2
    curve, whose total is the doubly-totally-ramified count (count_dd2222)
    summed over chain windings, 48(d sigma_3 - sigma_1), and which decomposes
    as 2(Delta_[1] + Delta_[4]).

    Built-in consistency: the two product presentations of Delta_[11] must
    agree; the contributions to Delta_[7] (a class rationally equivalent to
    Delta_[6]) must cancel to zero; the chain-winding sum must match its
    closed form; and every assembled row must match its closed form.
    """
    require_positive(d)
    closed = _closed("boundary_profile_m3", d)
    windings = sum(count_dd2222(a) * (d // a) for a in divisors(d))
    squared = closed.pop("windings")
    crosscheck("boundary_profile_m3[windings]", d, windings=windings, closed=squared)
    surfaces = product_surfaces_m3(d)
    crosscheck("boundary_profile_m3[Delta_[7]]", d, topologies=surfaces["Delta_[7]"], vanishing=0)

    rows = {label: surfaces[label] for label in ("Delta_[1]", "Delta_[5]", "Delta_[6]",
                                                 "Delta_[8]", "Delta_[10]")}
    rows["Delta_[4]"] = squared / 2 - rows["Delta_[1]"]
    for label, value in rows.items():
        crosscheck(f"boundary_profile_m3[{label}]", d, topologies=value, closed=closed[label])
    crosscheck(
        "boundary_profile_m3[Delta_[11]]",
        d,
        surface_x_point=surfaces["Delta_[11]a"],
        curve_x_moduli=surfaces["Delta_[11]b"],
        closed=closed["Delta_[11]"],
    )
    return MappingProxyType(closed)


@lru_cache(maxsize=None)
def delliptic_class_m3(d: int) -> ChowClass:
    """The genus-3 d-elliptic class: the exact 7x7 solve of the boundary
    profile, verified coefficient by coefficient against the closed form."""
    return _solved_class("m3", d)


# ---------------------------------------------------------------------------
# marked-pair contributions with a triple branch point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def triple_branch_chain_sum(d: int) -> Fraction:
    """Single-chain covers through a triple point: over each winding a | d,
    (a-1)(a-2)/6 covers with multiplicity m = d/a.

    Equals (d/6 + 1/3) sigma_1(d) - d sigma_0(d)/2; the divisor-count term
    makes the generating series non-quasimodular on its own.
    """
    require_positive(d)
    direct = sum(F((a - 1) * (a - 2), 6) * (d // a) for a in divisors(d))
    closed = sigma_polynomial(CLOSED_FORMS["triple_branch"]["chain"], d)
    return crosscheck("triple_branch_chain_sum", d, direct=direct, closed=closed)


@lru_cache(maxsize=None)
def triple_branch_split_sum(d: int) -> Fraction:
    """Split covers through a triple point: weight m*b over the splittings
    a*m + b*n = d with distinct windings a != b (equal windings admit no
    connected cover).

    All splitting weights less the equal-winding ones (_splitting_weights),
    checked against conv2(d) - d sigma_1(d)/2 + d sigma_0(d)/2, written in
    sigma; the opposite divisor-count term cancels the one in the
    single-chain sum.
    """
    require_positive(d)
    total, diagonal = _splitting_weights(d)
    direct = total - diagonal
    closed = sigma_polynomial(CLOSED_FORMS["triple_branch"]["split"], d)
    return crosscheck("triple_branch_split_sum", d, closed=closed, direct=direct)


#: the weight every certification fit (classes and triple-branch pair) uses
CERTIFICATION_WEIGHT = 6


def triple_branch_cancellation(order: int) -> tuple[FitResult, FitResult, FitResult]:
    """Fit the two triple-branch series and their sum at CERTIFICATION_WEIGHT.

    Each part carries a d*sigma_0(d) term of opposite sign, so the parts refuse
    the fit individually while the sum succeeds.
    """
    chain = QSeries.from_function(
        order, lambda d: 0 if d == 0 else triple_branch_chain_sum(d)
    )
    split = QSeries.from_function(
        order, lambda d: 0 if d == 0 else triple_branch_split_sum(d)
    )
    return (
        fit_quasimodular(chain, CERTIFICATION_WEIGHT, order),
        fit_quasimodular(split, CERTIFICATION_WEIGHT, order),
        fit_quasimodular(chain + split, CERTIFICATION_WEIGHT, order),
    )


# ---------------------------------------------------------------------------
# quasimodularity certification
# ---------------------------------------------------------------------------

#: family -> (space, degree, class fn, profile fn, closed-form rows by
#: substack label), the one declaration of each family that every caller reads
FAMILIES = {
    "m2": ("M2", 1, delliptic_class_m2, boundary_profile_m2, rows({
        "delta_0": {(1, 1): -2, (0, 3): 2},
        "delta_1": {(0, 1): -4, (0, 3): 4},
    })),
    "m2e": ("M2", 2, fixed_target_class_m2, fixed_target_profile_m2, rows({
        "delta_00": {(1, 1): F(-22, 5), (0, 1): F(2, 5), (0, 3): 4},
        "delta_01": {(1, 1): F(-12, 5), (0, 1): F(-8, 5), (0, 3): 4},
    })),
    "m21": ("M21", 2, delliptic_class_m21, boundary_profile_m21, rows({
        "delta_00": {(1, 1): F(-1, 12), (0, 3): F(1, 12)},
        "delta_01a": {(0, 1): F(1, 12), (0, 3): F(-1, 12)},
        "delta_01b": {(1, 1): -1, (0, 1): F(-1, 12), (0, 3): F(13, 12)},
        "xi_1": {(1, 1): -2, (0, 3): 2},
        "delta_11": {(0, 1): -4, (0, 3): 4},
    })),
    "m3": ("M3", 2, delliptic_class_m3, boundary_profile_m3, rows({
        "lambda^2": {(2, 1): -6264, (1, 1): 6780, (0, 1): -960,
                     (1, 3): 5592, (0, 3): -5400, (0, 5): 252},
        "lambda*delta_0": {(2, 1): 1224, (1, 1): -1068, (0, 1): 156,
                           (1, 3): -1152, (0, 3): 840},
        "lambda*delta_1": {(2, 1): 2160, (1, 1): -696, (0, 1): 216,
                           (1, 3): -1920, (0, 3): 240},
        "delta_0^2": {(2, 1): -54, (1, 1): 39, (0, 1): -6, (1, 3): 51, (0, 3): -30},
        "delta_0*delta_1": {(2, 1): -216, (1, 1): 36, (0, 1): -12, (1, 3): 192},
        "delta_1^2": {(2, 1): -216, (1, 1): -132, (0, 1): 36, (1, 3): 192, (0, 3): 120},
        "kappa_2": {(2, 1): 216, (1, 1): -444, (0, 1): 60, (1, 3): -192, (0, 3): 360},
    })),
}

# the benchmark's correctness gates (perfbench/test_perfbench.py) read these two
delliptic_class_m2_closed = partial(closed_class, "m2")
delliptic_class_m21_closed = partial(closed_class, "m21")


def family_labels(family: str) -> tuple[str, ...]:
    """Substack coefficient labels of one class family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown class family {family!r}")
    space_id, degree = FAMILIES[family][:2]
    return q_basis_labels(space_id, degree)


def class_in_family(family: str, d: int) -> ChowClass:
    if family not in FAMILIES:
        raise ValueError(f"unknown class family {family!r}")
    return FAMILIES[family][2](d)


def coefficient_series(family: str, label: str, order: int) -> QSeries:
    """Generating series of one substack coefficient across d = 1..order."""
    if label not in family_labels(family):
        raise ValueError(f"unknown coefficient label {label!r} for family {family!r}")
    return QSeries.from_function(
        order,
        lambda d: 0 if d == 0 else class_in_family(family, d).coefficient(label),
    )


def certify_quasimodularity(order: int) -> dict[str, dict[str, FitResult]]:
    """Fit every coefficient series of every class family at
    CERTIFICATION_WEIGHT.

    Returns {family: {label: FitResult}}; membership of all four generating
    series in the quasimodular ring means every fit succeeds.
    """
    return {
        family: {
            label: fit_quasimodular(
                coefficient_series(family, label, order), CERTIFICATION_WEIGHT, order
            )
            for label in family_labels(family)
        }
        for family in FAMILIES
    }
