"""Named verification checks and the machine-readable report.

Each check re-runs one slab of the package's internal redundancy: dual-route
profile assembly, solver-vs-closed-form class comparisons, the pushforward
coherence, counting-oracle closed forms, the convolution and derivative
identities, the triple-branch cancellation, and the quasimodularity
certification. A check passes silently inside the operations it calls (those
raise CrossCheckError on any disagreement), so a failure surfaces here with
the offending check named. `run_verification` runs the checks in one pass; a
check that owns a report section (a family's `classes`, the `series` fits)
writes it as it passes, so a failing check omits only its own section.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable

from . import chow, covers, loci
from .covers import (
    SUBGROUP_ENUMERATION_BUDGET,
    Partition,
    count_dd3,
    count_dd22,
    count_dd2222,
    count_pointed_isogenies,
    count_pointed_isogenies_enumerated,
    count_sublattices,
    hurwitz_number,
)
from .divisors import conv2, conv2_weighted, conv3, require_order, sigma_series, table_order
from .errors import CrossCheckError, crosscheck
from .linalg import solve_unique
from .quasimodular import NotQuasimodular, QuasimodularFit, eisenstein, q_derivative
from .series import format_rational

SCHEMA = "delliptic/1"

F = Fraction


def _check_pairing_tables() -> str:
    counted = 0
    for space_id, sp in chow.SPACES.items():
        for (deg_a, deg_b), table in sp.pairings.items():
            rows, cols = sp.bases[deg_a], sp.bases[deg_b]
            if len(table) != len(rows) or any(len(r) != len(cols) for r in table):
                raise CrossCheckError(
                    f"{space_id} pairing ({deg_a},{deg_b}) has wrong shape"
                )
            if deg_a == deg_b:
                for i in range(len(rows)):
                    for j in range(len(cols)):
                        if table[i][j] != table[j][i]:
                            raise CrossCheckError(
                                f"{space_id} self-pairing is asymmetric at "
                                f"({rows[i]}, {cols[j]})"
                            )
            if len(rows) == len(cols):
                # perfect pairing blocks must be invertible; a zero right-hand
                # side is always consistent, so only a singular block raises
                solve_unique(table, [0] * len(rows))
                counted += 1
    return f"{counted} square pairing blocks invertible, shapes and symmetry verified"


def _check_convolutions() -> str:
    top = 256
    for convolution in (conv2, conv2_weighted, conv3):
        convolution(top)  # reads its table, checked whole to q^table_order(top)
    return f"direct sums equal closed forms for d <= {table_order(top)}"


def _check_ramanujan(order: int) -> str:
    e2, e4, e6 = (eisenstein(k, order) for k in (2, 4, 6))
    if q_derivative(e2) != F(1, 12) * (e2 * e2 - e4):
        raise CrossCheckError("weight-2 derivative identity fails")
    if q_derivative(e4) != F(1, 3) * (e2 * e4 - e6):
        raise CrossCheckError("weight-4 derivative identity fails")
    if q_derivative(e6) != F(1, 2) * (e2 * e6 - e4 * e4):
        raise CrossCheckError("weight-6 derivative identity fails")
    return f"all three derivative identities exact to order {order}"


def _check_hurwitz() -> str:
    top = 7
    for d in range(3, top + 1):
        profile = Partition([d])
        third = Partition([3] + [1] * (d - 3))
        got = hurwitz_number(d, [profile, profile, third])
        crosscheck("one-part profile count", d, brute_force=got, closed=count_dd3(d))
    for a in range(1, top):
        for b in range(a, top + 1 - a):
            d = a + b
            if d < 3:
                continue
            pair = Partition([a, b])
            third = Partition([3] + [1] * (d - 3))
            got = hurwitz_number(d, [pair, pair, third])
            name = f"two-part profile count at (a,b)=({a},{b})"
            crosscheck(name, d, brute_force=got, closed=F(0) if a == b else F(1))
    return f"one-part and two-part triple-branch counts match closed forms for d <= {top}"


def _sigma1_from_factorisation(d: int) -> int:
    """sigma_1(d) = prod (p^(k+1) - 1)/(p - 1) over d = prod p^k, the primes
    found by trial division: a route that reads neither divisors nor sigma."""
    total, p = 1, 2
    while p * p <= d:
        power = 1
        while d % p == 0:
            d //= p
            power *= p
        total *= (power * p - 1) // (p - 1)
        p += 1
    return total * (d + 1) if d > 1 else total


def _check_sublattices() -> str:
    top = 50
    for d in range(1, top + 1):
        crosscheck("sublattice-count", d, divisor_sum=count_sublattices(d),
                   factorisation=_sigma1_from_factorisation(d))
    return f"count equals sigma_1(d) for d <= {top}"


def _check_pointed_isogenies() -> str:
    top = SUBGROUP_ENUMERATION_BUDGET
    closed = sigma_series(covers.CLOSED_FORMS["count_pointed_isogenies"], top)
    for d in range(1, top + 1):
        routes = {
            "brute-force": count_pointed_isogenies_enumerated(d),
            "structural": count_pointed_isogenies(d),
            "closed-form": closed.coefficient(d),
        }
        crosscheck("pointed-isogeny-count", d, **routes)
    return f"brute force, structural route and (d-1)sigma_1(d) agree for d <= {top}"


def _check_degeneration_identity() -> str:
    # count_dd2222 through count_dd22: of the 20 ways to distribute six points
    # onto two elliptic bridge components, 12 split the total ramification
    # points and 8 keep them together
    top = 20
    for d in range(1, top + 1):
        pair = count_dd22(d)
        crosscheck("degeneration-identity", d, genus2=count_dd2222(d),
                   degenerated=12 * pair * pair + 8 * 6 * pair)
    return f"six-point degeneration identity holds for d <= {top}"


#: (check, family, what agrees): one class sweep per family, in report order
_CLASS_CHECKS = (
    ("genus2-classes", "m2", "dual routes and closed form agree"),
    ("fixed-target-classes", "m2e", "oracle routes and closed form agree"),
    # the m21 class also compares its pushforward with the unpointed class
    ("pointed-genus2-classes", "m21", "routes, closed form and pushforward agree"),
    ("genus3-classes", "m3", "contribution table, vanishing total, product routes "
     "and closed form agree"),
)


def _check_classes(family: str, agreed: str, max_d: int) -> str:
    loci.class_series(family, max_d)
    return f"{agreed} for d <= {max_d}"


def _check_triple_branch_sums() -> str:
    top = 64
    loci.triple_branch_chain_sum(top)  # the triple table, checked whole to q^table_order(top)
    loci.triple_branch_split_sum(top)
    return f"direct sums equal closed forms for d <= {table_order(top)}"


def _check_cancellation(order: int) -> str:
    chain_fit, split_fit, sum_fit = loci.triple_branch_cancellation(order)
    if not isinstance(chain_fit, NotQuasimodular):
        raise CrossCheckError("chain series unexpectedly fits")
    if not isinstance(split_fit, NotQuasimodular):
        raise CrossCheckError("split series unexpectedly fits")
    if not isinstance(sum_fit, QuasimodularFit):
        raise CrossCheckError("summed series fails to fit")
    weight = loci.CERTIFICATION_WEIGHT
    return f"parts refuse and sum fits at weight {weight}, order {order}"


def _check_certification(report: dict, order: int) -> str:
    fits = {f"{family}/{label}": fit for family, by_label in report.items()
            for label, fit in by_label.items()}
    failures = [name for name, fit in fits.items() if not isinstance(fit, QuasimodularFit)]
    if failures:
        raise CrossCheckError(f"series not quasimodular: {', '.join(failures)}")
    # every monomial starts at 1, so a fit's coefficient sum is its series'
    # q^0, which a class series (d >= 1) must leave 0
    constant = [name for name, fit in fits.items() if sum(c for _, c in fit.coefficients)]
    if constant:
        raise CrossCheckError(f"series with a nonzero q^0: {', '.join(constant)}")
    weight = loci.CERTIFICATION_WEIGHT
    return f"all {len(fits)} coefficient series fit at weight {weight}, order {order}"


def class_report(family: str, d: int) -> dict:
    """Profile, solved class, closed-form class and agreement flag at one d."""
    space_id, _, _, profile_fn, *_ = loci.FAMILIES[family]
    numbers = {label: format_rational(v) for label, v in profile_fn(d).items()}
    solved = loci.class_in_family(family, d)  # cached, solved once by the checks
    closed = loci.closed_class(family, d)
    return {
        "d": d,
        "profile": {"space": space_id, "numbers": numbers},
        "solved": solved.to_json_dict(),
        "closed": closed.to_json_dict(),
        "agree": solved == closed,
    }


def run_verification(max_d: int = 30, order: int = 30) -> dict:
    """Run every named check once; returns the JSON-ready report."""
    require_order(max_d, 1, "max_d")
    require_order(order, 8)  # the certification fits are overdetermined from order 8
    classes: dict = {}
    series: dict = {}

    def check_classes(family: str, agreed: str) -> str:
        detail = _check_classes(family, agreed, max_d)
        classes[family] = [class_report(family, d) for d in range(1, max_d + 1)]
        return detail

    def certify() -> str:
        fits = loci.certify_quasimodularity(order)
        detail = _check_certification(fits, order)
        for family, by_label in fits.items():
            series[family] = {label: fit.to_json_dict() for label, fit in by_label.items()}
        return detail

    checks: list[tuple[str, Callable[[], str]]] = [
        ("pairing-tables", _check_pairing_tables),
        ("convolution-identities", _check_convolutions),
        ("ramanujan-identities", lambda: _check_ramanujan(order)),
        ("hurwitz-closed-forms", _check_hurwitz),
        ("sublattice-count", _check_sublattices),
        ("pointed-isogeny-count", _check_pointed_isogenies),
        ("degeneration-identity", _check_degeneration_identity),
        *((name, partial(check_classes, family, agreed))
          for name, family, agreed in _CLASS_CHECKS),
        ("triple-branch-sums", _check_triple_branch_sums),
        ("triple-branch-cancellation", lambda: _check_cancellation(order)),
        ("quasimodularity-certification", certify),
    ]
    results = []
    for name, fn in checks:
        try:
            detail, passed = fn(), True
        except Exception as exc:  # report and continue; never abort the sweep
            detail, passed = f"{type(exc).__name__}: {exc}", False
        results.append({"check": name, "passed": passed, "detail": detail})
    first_failure = next((r["check"] for r in results if not r["passed"]), None)
    return {
        "schema": SCHEMA,
        "max_d": max_d,
        "order": order,
        "passed": first_failure is None,
        "first_failure": first_failure,
        "checks": results,
        "classes": {family: classes[family] for family in sorted(classes)},
        "series": series,
    }
