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
directly off the isogeny count and conv2, so it is checked through its class
alone. Every solved class is compared against its closed form in the
substack basis, and the m21 classes, pushed forward, against the m2 ones.
Each comparison goes through errors.crosscheck (or crosscheck_series, which
runs it at the first d where whole series differ), raising CrossCheckError
that names the route that disagrees; these checks are the package's defense
against transcription errors in the tables.

Every closed form is data, not code: a row {(j, k): c} meaning
sum c d^j sigma_k(d) (sigma_0 the divisor count), read as a series by the one
reader divisors.sigma_series. The class rows sit in FAMILIES; the profile rows,
the chain-winding total, the two-marked cover class and the two
triple-branch sums sit in CLOSED_FORMS. The profile rows are written in
sigma directly, so the closed route reads no convolution table. Every row
is a read-only mapping (divisors.rows), in read-only tables; FAMILIES stays
a dict, as the benchmark's tracer wraps the functions in it.

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

The routes of m2, m21, m3, the m12 class and the triple-branch sums run on
whole series: one divisors.growing_table per family builds each route to q^n
and checks it against the closed rows read as series; the m12 profile and
each family's class rows are such tables too. A read at d past the held table
rebuilds it at table_order(d), so the one class sweep, class_series, reads
its top d first and builds each table once. The windings over a | d are one
divisor sieve, the D1_D12 tail one product 12 A*F. The m12, m2, m21 and m3
classes are read off class tables: the profile table solved whole
(chow.solve_class_series) and checked whole against the closed rows, the
m21 table also pushed forward whole against the m2 one. Each class table
(_class_table) is built at the order of its held profile table. The m2e
profile reads the isogeny count per d: no table, its class solved per d.

The double-chain covers (the m21 profile and the split sum) weigh m*b over
the splittings a*m + b*n = d, which totals sum_k sigma_1(k) sigma_1(d - k) =
conv2(d); both read the conv2 table (divisors.convolution_table). So at
Delta_01a and Delta_01b the nodal and separating routes both read conv2:
they still compare the registered bridge pairings, double-pair entries and
diagonal numbers, and the conv2 table is checked where it is owned (A*A
against its row, in divisors) and by the closed row.

The M13 (2, 1) pairing table has one reader, the m21 bridge term, and it reads
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

All functions are pure in d, and every cache holds read-only values
(MappingProxyTypes, immutable series and classes); a growing_table stores a
table in one dict assignment, so the d-sweep is safe to parallelize, a racing
read at worst building one table twice. The caches are not keyed by the
registered tables, so a test swaps a table only through the `plant` fixture
of tests/conftest.py, which empties them around the swap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Mapping

from . import covers
from .chow import (FORGET_M21_TO_M2, ChowClass, ClassSeries, pairing_number,
                   pushforward_m21_to_m2, q_basis_labels, solve_class, solve_class_series,
                   space, to_q_class_basis)
from .covers import count_dd3, count_dd22, count_dd2222, count_pointed_isogenies
from .divisors import (conv2, convolution_table, growing_table, require_order, rows, sigma,
                       sigma_series)
from .errors import crosscheck, crosscheck_series
from .quasimodular import FitResult, fit_quasimodular
from .series import QSeries

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
    "class_series",
    "coefficient_series",
    "CERTIFICATION_WEIGHT",
    "certify_quasimodularity",
]

F = Fraction


#: object -> {label: row}, every closed form of this module but the class rows
#: in FAMILIES; a profile row is checked as "object[label]", the m12 class as
#: "pointed_cover_class_m12", a triple-branch row as "triple_branch_<label>_sum"
CLOSED_FORMS: Mapping[str, Mapping[str, Mapping]] = MappingProxyType({
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


def _closed(name: str, n: int) -> dict[str, QSeries]:
    """The closed forms CLOSED_FORMS[name] as series to q^n, by label."""
    return {label: sigma_series(row, n) for label, row in CLOSED_FORMS[name].items()}


def _series(n: int, fn) -> QSeries:
    """sum_{d=1..n} fn(d) q^d (q^0 is 0)."""
    return QSeries([0, *map(fn, range(1, n + 1))], n)


def _read(table: Mapping[str, QSeries], d: int) -> Mapping[str, Fraction]:
    """A table's q^d coefficients by label, read-only."""
    return MappingProxyType({label: s.coefficient(d) for label, s in table.items()})


def _windings(n: int, counts: QSeries) -> QSeries:
    """sum_{a | d} counts_a * (d/a) to q^n, counts_a the q^a coefficient of
    a series (q^0 = 0) read to q^n: one divisor sieve over its denominator."""
    sums = [0] * (n + 1)
    for a, c in enumerate(counts.numerators[:n + 1]):
        for m, d in enumerate(range(a, n + 1, a) if c else (), 1):
            sums[d] += m * c
    return QSeries(sums) * F(1, counts.denominator)


@growing_table
def _closed_class_table(family: str, n: int) -> ClassSeries:
    """One family's class rows in FAMILIES as series to q^n."""
    space_id, degree, _, _, rows, _ = FAMILIES[family]
    labels = q_basis_labels(space_id, degree)
    return ClassSeries(space_id, degree, labels,
                       tuple(sigma_series(rows[label], n) for label in labels))


def closed_class(family: str, d: int) -> ChowClass:
    """One family's closed-form class at d, read off its table of class rows."""
    _family(family)
    return _closed_class_table(family, d).coefficient(d)


@growing_table
def _class_table(family: str, n: int) -> ClassSeries:
    """One family's classes to q^n: its profile table solved whole
    (chow.solve_class_series), scaled into the substack basis by q_factors,
    and checked whole against its closed class table, raising
    class[family](d=k) at the smallest k where any label differs, with both
    whole classes at k, as a sweep over d would."""
    space_id, degree, _, _, _, profile_table = FAMILIES[family]
    solved = solve_class_series(space_id, degree, profile_table(n))
    factors = space(space_id).q_factors[degree]
    table = ClassSeries(space_id, degree, q_basis_labels(space_id, degree),
                        tuple(s * factors[label] for label, s in solved.items()))
    closed = _closed_class_table(family, table.order).truncate(table.order)
    crosscheck_series(f"class[{family}]", solver=table, closed=closed)
    if family == "m21":  # forgetting the marked point must give the m2 classes
        crosscheck_series("pushforward[m21]", pushforward=pushforward_m21_to_m2(table),
                          unpointed=_class_table("m2", table.order).truncate(table.order))
    return table


def _table_class(family: str, d: int) -> ChowClass:
    """One family's class at d, read off its class table at the order of its
    held profile table, so a sweep builds the class table only when the
    profile table grows."""
    profile = FAMILIES[family][5](d)
    return _class_table(family, next(iter(profile.values())).order).coefficient(d)


# ---------------------------------------------------------------------------
# auxiliary loci on M12 and M13
# ---------------------------------------------------------------------------


@growing_table
def _profile_table_m12(n: int) -> Mapping[str, QSeries]:
    """pointed_cover_profile_m12 to q^n, by dual label."""
    isogenies = sigma_series(covers.CLOSED_FORMS["count_pointed_isogenies"], n)
    return MappingProxyType({"Delta_0": isogenies, "Delta_1": QSeries.zero(n)})


def pointed_cover_profile_m12(d: int) -> Mapping[str, Fraction]:
    """Intersection numbers of the locus of genus-1 covers carrying two
    marked points over one target point, against the M12 divisors.

    The irreducible-nodal divisor meets it in the pointed isogenies, of which
    there are (d-1)sigma_1(d), read off their closed-form row; the reducible
    divisor misses it entirely.
    """
    return _read(_profile_table_m12(d), d)


@growing_table
def _class_table_m12(n: int) -> Mapping[str, QSeries]:
    """pointed_cover_class_m12 to q^n by basis label: one series solve, checked whole."""
    profile = {label: s.truncate(n) for label, s in _profile_table_m12(n).items()}
    solved = solve_class_series("M12", 1, profile)
    for label, closed in _closed("pointed_cover_class_m12", n).items():
        crosscheck_series("pointed_cover_class_m12", solver=solved[label], closed=closed)
    return solved


def pointed_cover_class_m12(d: int) -> ChowClass:
    """The M12 class of the two-marked cover locus, (d-1)sigma_1(d) (Delta_0/24 + Delta_1)."""
    table = _class_table_m12(d)
    return ChowClass("M12", 1, tuple(table), tuple(s.coefficient(d) for s in table.values()))


@growing_table
def _profile_table_m13(n: int) -> Mapping[str, QSeries]:
    """total_ramification_profile_m13 to q^n, by dual label."""
    return MappingProxyType({label: _series(n, count_dd22) if label == "Delta_0"
                             else QSeries.zero(n) for label in space("M13").bases[1]})


def total_ramification_profile_m13(a: int) -> Mapping[str, Fraction]:
    """Intersection numbers on M13 of the locus of genus-1 covers of a line,
    totally ramified at two marked points and simply at a third.

    Meets the irreducible-nodal divisor in the 2(a^2 - 1) doubly totally
    ramified pencils (count_dd22) and misses every reducible divisor.
    """
    require_order(a, 1, "a")
    return _read(_profile_table_m13(a), a)


#: Intersection numbers on M13 of the glued genus-0 double-pair cover locus
#: (two pairs of points with equal images, ramified to orders a and b, one
#: pair identified to a node). It meets the two reducible divisors that keep
#: the simple branch point on the genus-1 part, once each, whatever (a, b):
#: so every pair has this one profile, and the double-chain sums reduce to
#: one splitting weight per d, conv2(d).
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


def _m13_windings(n: int, label: str) -> QSeries:
    """Type (Delta_0, Delta_0) contributions to q^n at one M13 divisor:
    chains of rational curves wound a times around an irreducible nodal
    target, weighted by multiplicity m per divisor splitting d = a*m."""
    return _windings(n, _profile_table_m13(n)[label])


# The two M2 dual curves, both realized in the irreducible-nodal boundary
# (whose interior is M12), by the M12 divisor each one meets.
_M2_DUAL_IN_M12 = MappingProxyType({"Delta_00": "Delta_0", "Delta_01": "Delta_1"})


@growing_table
def _profile_table_m2(n: int) -> Mapping[str, QSeries]:
    """boundary_profile_m2 to q^n, by dual label, each route checked whole."""
    closed = _closed("boundary_profile_m2", n)
    conv = convolution_table("conv2", n)
    for dual, label in _M2_DUAL_IN_M12.items():
        # bridge covers (x2 multiplicity), chain covers, double-chain covers
        topologies = (
            2 * _profile_table_m12(n)[label]
            + sum((_m13_windings(n, m13) for m13 in _M12_DIVISOR_PULLBACK[label]),
                  QSeries.zero(n))
            + conv * (2 * pairing_number("M12", label, 1, "Delta_0", 1))
        )
        crosscheck_series(f"boundary_profile_m2[{dual}]", topologies=topologies,
                          closed=closed[dual])
    return MappingProxyType(closed)


@lru_cache(maxsize=None)
def boundary_profile_m2(d: int) -> Mapping[str, Fraction]:
    """Intersection numbers of the genus-2 d-elliptic locus with the two
    boundary curve classes of M2.

    Assembled from the per-topology contributions, both duals realized in
    the irreducible-nodal boundary, and checked against the closed forms
    4(d-1)sigma_1(d) and 2*conv2(d), both written in sigma.
    """
    return _read(_profile_table_m2(d), d)


@lru_cache(maxsize=None)
def delliptic_class_m2(d: int) -> ChowClass:
    """The genus-2 d-elliptic divisor class, solved from its boundary profile
    and verified against the closed form (read off _class_table). Zero at d = 1."""
    return _table_class("m2", d)


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
    return MappingProxyType({"Delta_0": F(count_pointed_isogenies(d)),
                             "Delta_1": F(2 * conv2(d))})


@lru_cache(maxsize=None)
def fixed_target_class_m2(d: int) -> ChowClass:
    """Class of genus-2 covers of a fixed elliptic curve: its profile at d
    solved against the pairing table, in the substack basis, and equal to
    its closed form. The profile reads the isogeny count one d at a time, so
    this class has no table and is solved per d."""
    space_id, degree = FAMILIES["m2e"][:2]
    solved = to_q_class_basis(solve_class(space_id, degree, fixed_target_profile_m2(d)))
    return crosscheck("class[m2e]", d, solver=solved, closed=closed_class("m2e", d))


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


@growing_table
def _profile_table_m21(n: int) -> Mapping[str, QSeries]:
    """boundary_profile_m21 to q^n, by dual label, each route checked whole."""
    closed = _closed("boundary_profile_m21", n)

    # bridge covers land on the section curves indexed {1,2} and {1,3},
    # carrying the solved two-marked cover class; double-chain covers carry
    # the splitting weight conv2(d) times the double-pair profile
    x, y = (_class_table_m12(n)[label] for label in ("Delta_0", "Delta_1"))
    conv = convolution_table("conv2", n)

    def sections(curve: str, m13_label: str) -> Fraction:
        return sum(pairing_number("M13", f"{curve}_{s}", 2, m13_label, 1)
                   for s in ("{1,2}", "{1,3}"))

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
                x * sections("Delta_01", label) + y * sections("Delta_11", label)
                + _m13_windings(n, label) + conv * DOUBLE_PAIR_PROFILE_M13[label]
            )
        if dual in diagonal_numbers:
            routes["separating"] = conv * diagonal_numbers[dual]
        crosscheck_series(f"boundary_profile_m21[{dual}]", **routes)
    return MappingProxyType(closed)


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
    return _read(_profile_table_m21(d), d)


@lru_cache(maxsize=None)
def delliptic_class_m21(d: int) -> ChowClass:
    """The marked genus-2 d-elliptic class, read off _class_table, whose build
    checks it against the closed form and, pushed forward, the m2 classes."""
    return _table_class("m21", d)


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


def _surface_series(n: int) -> dict[str, QSeries]:
    """Product surface label -> the D1_D13, D11_D14 and D1_D12 terms summed,
    as series to q^n. A curve x moduli meets no D1_D13 cover: the projection
    collapses it. The D1_D12 term 12 sum_{d1 < d} sigma_1(d - d1) F(d1)[target]
    is 12 A*F, A = sum sigma_1(m) q^m, and 0 where the forget map contracts
    the surface (None). The m2e profile F is read as series: the isogeny
    count and twice the conv2 table."""
    m2, m21 = _profile_table_m2(n), _profile_table_m21(n)
    conv = convolution_table("conv2", n)
    m2e = {"Delta_0": _series(n, count_pointed_isogenies), "Delta_1": 2 * conv}
    a = _series(n, partial(sigma, 1))
    bridge = 24 * conv

    def tail(profile, target):
        return QSeries.zero(n) if target is None else 12 * (a * profile[target])

    totals = {}
    for surface, dual in _SURFACE_X_POINT.items():
        totals[surface] = (
            24 * m21[dual]
            + bridge * pairing_number("M21", dual, 2, "Delta_01a", 2)
            + tail(m2e, FORGET_M21_TO_M2[dual])
        )
    for surface, curve in _CURVE_X_MODULI.items():
        totals[surface] = (
            bridge * pairing_number("M21", "Delta_1", 1, curve, 3)
            + tail(m2, _FORGET_CURVE[curve])
        )
    return totals


@growing_table
def _profile_table_m3(n: int) -> tuple[Mapping[str, QSeries], Mapping[str, QSeries]]:
    """(boundary_profile_m3, product_surfaces_m3) to q^n, by label, every
    check of the profile run on whole series."""
    closed = _closed("boundary_profile_m3", n)
    squared = closed.pop("windings")
    windings = _windings(n, _series(n, count_dd2222))
    crosscheck_series("boundary_profile_m3[windings]", windings=windings, closed=squared)
    surfaces = _surface_series(n)
    crosscheck_series("boundary_profile_m3[Delta_[7]]", topologies=surfaces["Delta_[7]"],
                      vanishing=QSeries.zero(n))

    rows = {label: surfaces[label] for label in ("Delta_[1]", "Delta_[5]", "Delta_[6]",
                                                 "Delta_[8]", "Delta_[10]")}
    rows["Delta_[4]"] = squared * F(1, 2) - rows["Delta_[1]"]
    for label, value in rows.items():
        crosscheck_series(f"boundary_profile_m3[{label}]", topologies=value, closed=closed[label])
    crosscheck_series(
        "boundary_profile_m3[Delta_[11]]",
        surface_x_point=surfaces["Delta_[11]a"],
        curve_x_moduli=surfaces["Delta_[11]b"],
        closed=closed["Delta_[11]"],
    )
    return MappingProxyType(closed), MappingProxyType(surfaces)


def product_surfaces_m3(d: int) -> Mapping[str, Fraction]:
    """Product surface label -> the D1_D13, D11_D14 and D1_D12 terms summed
    at d (see _surface_series), read off the checked m3 table."""
    return _read(_profile_table_m3(d)[1], d)


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
    return _read(_profile_table_m3(d)[0], d)


@lru_cache(maxsize=None)
def delliptic_class_m3(d: int) -> ChowClass:
    """The genus-3 d-elliptic class: the exact 7x7 solve of the boundary
    profile, verified coefficient by coefficient against the closed form
    (read off _class_table)."""
    return _table_class("m3", d)


# ---------------------------------------------------------------------------
# marked-pair contributions with a triple branch point
# ---------------------------------------------------------------------------


@growing_table
def _triple_branch_table(n: int) -> Mapping[str, QSeries]:
    """The two triple-branch sums to q^n, by label, each checked whole."""
    closed = _closed("triple_branch", n)
    crosscheck_series("triple_branch_chain_sum", direct=_windings(n, _series(n, count_dd3)),
                      closed=closed["chain"])
    equal = _windings(n, _series(n, lambda m: m * (m - 1) // 2))
    crosscheck_series("triple_branch_split_sum", closed=closed["split"],
                      direct=convolution_table("conv2", n) - equal)
    return MappingProxyType(closed)


def triple_branch_chain_sum(d: int) -> Fraction:
    """Single-chain covers through a triple point: over each winding a | d,
    count_dd3(a) = (a-1)(a-2)/6 covers with multiplicity m = d/a.

    Equals (d/6 + 1/3) sigma_1(d) - d sigma_0(d)/2; the divisor-count term
    makes the generating series non-quasimodular on its own.
    """
    return _triple_branch_table(d)["chain"].coefficient(d)


def triple_branch_split_sum(d: int) -> Fraction:
    """Split covers through a triple point: weight m*b over the splittings
    a*m + b*n = d with distinct windings a != b (equal windings admit no
    connected cover).

    All splitting weights, conv2(d), less the equal-winding ones, a = b | d
    with weight a*k(k+1)/2 (k = d/a - 1): the windings of m(m-1)/2. Checked
    against conv2(d) - d sigma_1(d)/2 + d sigma_0(d)/2, written in sigma;
    the opposite divisor-count term cancels the one in the single-chain sum.
    """
    return _triple_branch_table(d)["split"].coefficient(d)


#: the weight every certification fit (classes and triple-branch pair) uses
CERTIFICATION_WEIGHT = 6


def triple_branch_cancellation(order: int) -> tuple[FitResult, FitResult, FitResult]:
    """Fit the two triple-branch series and their sum at CERTIFICATION_WEIGHT.

    Each part carries a d*sigma_0(d) term of opposite sign, so the parts refuse
    the fit individually while the sum succeeds.
    """
    require_order(order, 1)
    chain, split = (_triple_branch_table(order)[k].truncate(order) for k in ("chain", "split"))
    return (
        fit_quasimodular(chain, CERTIFICATION_WEIGHT, order),
        fit_quasimodular(split, CERTIFICATION_WEIGHT, order),
        fit_quasimodular(chain + split, CERTIFICATION_WEIGHT, order),
    )


# ---------------------------------------------------------------------------
# quasimodularity certification
# ---------------------------------------------------------------------------

#: family -> (space, degree, class fn, profile fn, closed-form rows by
#: substack label, profile table fn or None), the one declaration of each
#: family that every caller reads; m2e has no profile table
FAMILIES = {
    "m2": ("M2", 1, delliptic_class_m2, boundary_profile_m2, rows({
        "delta_0": {(1, 1): -2, (0, 3): 2},
        "delta_1": {(0, 1): -4, (0, 3): 4},
    }), _profile_table_m2),
    "m2e": ("M2", 2, fixed_target_class_m2, fixed_target_profile_m2, rows({
        "delta_00": {(1, 1): F(-22, 5), (0, 1): F(2, 5), (0, 3): 4},
        "delta_01": {(1, 1): F(-12, 5), (0, 1): F(-8, 5), (0, 3): 4},
    }), None),
    "m21": ("M21", 2, delliptic_class_m21, boundary_profile_m21, rows({
        "delta_00": {(1, 1): F(-1, 12), (0, 3): F(1, 12)},
        "delta_01a": {(0, 1): F(1, 12), (0, 3): F(-1, 12)},
        "delta_01b": {(1, 1): -1, (0, 1): F(-1, 12), (0, 3): F(13, 12)},
        "xi_1": {(1, 1): -2, (0, 3): 2},
        "delta_11": {(0, 1): -4, (0, 3): 4},
    }), _profile_table_m21),
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
    }), lambda n: _profile_table_m3(n)[0]),
}

# the benchmark's correctness gates (perfbench/test_perfbench.py) read these two
delliptic_class_m2_closed = partial(closed_class, "m2")
delliptic_class_m21_closed = partial(closed_class, "m21")


def _family(family: str) -> tuple:
    """FAMILIES[family]; ValueError for an unknown family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown class family {family!r}")
    return FAMILIES[family]


def family_labels(family: str) -> tuple[str, ...]:
    """Substack coefficient labels of one class family."""
    return q_basis_labels(*_family(family)[:2])


def class_in_family(family: str, d: int) -> ChowClass:
    return _family(family)[2](d)


def class_series(family: str, order: int) -> dict[str, QSeries]:
    """Every coefficient series of one family to q^order (require_order), by label: its
    profile and closed rows read at the top d once, so the class table is built
    once, then each class read at d ascending (m2e's solved and checked per d)."""
    labels = family_labels(family)
    require_order(order)
    if order:
        FAMILIES[family][3](order)
        closed_class(family, order)
    classes = [class_in_family(family, d) for d in range(1, order + 1)]
    return {label: QSeries([0, *(c.coefficient(label) for c in classes)], order)
            for label in labels}


def coefficient_series(family: str, label: str, order: int) -> QSeries:
    """Generating series of one substack coefficient, d = 1..order: read off class_series."""
    if label not in family_labels(family):
        raise ValueError(f"unknown coefficient label {label!r} for family {family!r}")
    return class_series(family, order)[label]


def certify_quasimodularity(order: int) -> dict[str, dict[str, FitResult]]:
    """Fit every coefficient series of every class family at
    CERTIFICATION_WEIGHT, one class_series sweep per family.

    Returns {family: {label: FitResult}}; membership of all four generating
    series in the quasimodular ring means every fit succeeds.
    """
    return {
        family: {label: fit_quasimodular(series, CERTIFICATION_WEIGHT, order)
                 for label, series in class_series(family, order).items()}
        for family in FAMILIES
    }
