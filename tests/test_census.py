"""Mutation census over the registered data: through the `plant` fixture,
every number (row coefficient; pairing entry, substack factor and dimension
of a space; double-pair entry) is bumped by 1 and every label-map and
forget-map entry is pointed at every other label it may name. The planted
errors that pass the checks reading their table are pinned with reasons;
every other one must be caught."""

import dataclasses
import importlib
from collections.abc import Mapping
from fractions import Fraction
from functools import partial

import pytest

from delliptic import chow, covers, loci, report
from delliptic.errors import CrossCheckError

# the package re-exports the function `divisors`, which shadows the module
divisors = importlib.import_module("delliptic.divisors")


def leaves(node, path=()):
    """(path, value) for every value inside `node` that is no mapping,
    tuple or dataclass."""
    if isinstance(node, Mapping):
        items = node.items()
    elif isinstance(node, tuple):
        items = enumerate(node)
    elif dataclasses.is_dataclass(node):
        items = vars(node).items()
    else:
        yield path, node
        return
    for key, value in items:
        yield from leaves(value, (*path, key))


def bump(value):
    return value + 1


def first_failure(*checks):
    """The head of the first error the checks raise: a CrossCheckError's
    check name and d ("class[m2](d=2)"), any other error's type; None when
    every check passes."""
    try:
        for check in checks:
            check()
    except CrossCheckError as exc:
        return str(exc).split(": ", 1)[0]
    except ValueError as exc:  # a singular system, an unpaired degree
        return type(exc).__name__
    return None


def class_checks():
    for _, family, agreed in report._CLASS_CHECKS:
        report._check_classes(family, agreed, 3)


def failed_verify_checks():
    result = report.run_verification(10, 20)
    return frozenset(c["check"] for c in result["checks"] if not c["passed"]) or None


def row_check(table, label):
    """The call that checks a closed-form row at the smallest d where it is
    checked, and the name that check fails with."""
    if table in loci.FAMILIES:
        return partial(loci.class_in_family, table, 1), f"class[{table}](d=1)"
    if table == "divisors":
        d = 3 if label == "conv3" else 2
        return partial(getattr(divisors, label), d), f"{label}(d={d})"
    if table == "covers":
        return report._check_pointed_isogenies, "pointed-isogeny-count(d=1)"
    name = f"triple_branch_{label}_sum" if table == "triple_branch" else table
    check = f"{table}[{label}]" if table.startswith("boundary_profile") else name
    return partial(getattr(loci, name), 1), f"{check}(d=1)"


def site(name, root, judge, path=(), targets=None, caught_by=None):
    """A table the census plants errors in, at `path` inside the package
    object `root`: judge() names what caught a planted error (None: nothing
    did); `targets` are the labels its entries may name (None: its entries
    are numbers); `caught_by`, where given, is what must catch each error."""
    return name, root, path, judge, targets, caught_by


def row_sites():
    tables = {
        **{family: (loci.FAMILIES, (family, 4)) for family in loci.FAMILIES},
        **{table: (loci.CLOSED_FORMS, (table,)) for table in loci.CLOSED_FORMS},
        "divisors": (divisors.CLOSED_FORMS, ()),
        "covers": (covers.CLOSED_FORMS, ()),
    }
    for table, (root, path) in tables.items():
        for label, row in at(root, path).items():
            if not row:  # a zero row (boundary_profile_m3's Delta_[6]) has nothing to bump
                continue
            call, check = row_check(table, label)
            yield site(f"{table}[{label}]", root, partial(first_failure, call),
                       (*path, label), caught_by=check)


def at(node, path):
    for key in path:
        node = node[key]
    return node


#: the label maps the topology routes read -> the basis their entries name
LABEL_MAPS = {
    "_M2_DUAL_IN_M12": chow.basis_labels("M12", 1),
    "_M12_DIVISOR_PULLBACK": chow.basis_labels("M13", 1),
    "_M21_DUAL_IN_M13": chow.basis_labels("M13", 1),
    "_SURFACE_X_POINT": chow.basis_labels("M21", 2),
    "_CURVE_X_MODULI": chow.basis_labels("M21", 3),
}

#: kind -> its sites; the surface forget map lands in the M2 divisors, the
#: curve forget map in the M2 curve classes
SITES = {
    "row": list(row_sites()),
    "space": [site("SPACES", chow.SPACES,
                   partial(first_failure, report._check_pairing_tables, class_checks))],
    "double_pair": [site("DOUBLE_PAIR_PROFILE_M13", loci.DOUBLE_PAIR_PROFILE_M13,
                         partial(first_failure, class_checks))],
    "label_map": [site(name, getattr(loci, name), partial(first_failure, class_checks),
                       targets=basis) for name, basis in LABEL_MAPS.items()],
    "forget_map": [
        site("FORGET_M21_TO_M2", chow.FORGET_M21_TO_M2, failed_verify_checks,
             targets=(None, *chow.basis_labels("M2", 1)), caught_by={
                 "pointed-genus2-classes", "genus3-classes", "quasimodularity-certification"
             }),
        site("_FORGET_CURVE", loci._FORGET_CURVE, failed_verify_checks,
             targets=(None, *chow.basis_labels("M2", 2)),
             caught_by={"genus3-classes", "quasimodularity-certification"}),
    ],
}


def planted_errors(site):
    """(datum, root, path from the root, change, judge, what must catch it)
    for every error planted in one site: a number bumped, or a label pointed
    at another target."""
    name, root, prefix, judge, targets, caught_by = site
    for path, value in leaves(at(root, prefix)):
        if targets is None and isinstance(value, (int, Fraction)):
            yield (name, *path), root, (*prefix, *path), bump, judge, caught_by
        for target in targets or ():
            if target != value:
                yield ((name, *path, target), root, (*prefix, *path),
                       lambda _, target=target: target, judge, caught_by)


UNREAD_COLUMN = "no M21 dual is realised in Delta_1_{1,2}, so no route reads it"
ZERO_BRIDGE = ("the bridge term is 0 at Delta_1_{2,3} and Delta_1_{1,2,3}, and the "
               "Delta_01a and Delta_01b profiles are both conv2")
M13_COLUMN = chow.basis_labels("M13", 1).index("Delta_1_{1,2}")

#: kind -> (how many errors it plants, the survivors with their reasons)
CENSUS = {
    "row": (125, {}),
    # 105 pairing entries, 16 substack factors and 5 dimensions
    "space": (126, {
        **{("SPACES", "M13", "pairings", (2, 1), row, M13_COLUMN): UNREAD_COLUMN
           for row in range(len(chow.basis_labels("M13", 2)))},
        ("SPACES", "M13", "dimension"): "M13 is never solved: only its pairing table is read",
    }),
    "double_pair": (5, {("DOUBLE_PAIR_PROFILE_M13", "Delta_1_{1,2}"): UNREAD_COLUMN}),
    "label_map": (56, {
        ("_M21_DUAL_IN_M13", "Delta_01a", "Delta_1_{1,2,3}"): ZERO_BRIDGE,
        ("_M21_DUAL_IN_M13", "Delta_01b", "Delta_1_{2,3}"): ZERO_BRIDGE,
        ("_M21_DUAL_IN_M13", "Xi_1", "Delta_1_{1,2}"):
            "the bridge sums over both section curves {1,2} and {1,3}",
        **{
            ("_M12_DIVISOR_PULLBACK", "Delta_1", index, target):
                "the chain windings are 0 at every reducible M13 divisor"
            for index, label in enumerate(loci._M12_DIVISOR_PULLBACK["Delta_1"])
            for target in chow.basis_labels("M13", 1)[1:]  # the reducible ones
            if target != label
        },
    }),
    "forget_map": (16, {}),
}


@pytest.mark.parametrize("kind", sorted(CENSUS))
def test_census_reaches_every_datum(kind):
    count, survivors = CENSUS[kind]
    datums = [error[0] for site in SITES[kind] for error in planted_errors(site)]
    assert len(set(datums)) == len(datums) == count
    # every pinned survivor is an error this kind plants
    assert set(survivors) <= set(datums)


@pytest.mark.parametrize(
    "kind, site", [(kind, site) for kind in sorted(SITES) for site in SITES[kind]],
    ids=[f"{kind}-{site[0]}" for kind in sorted(SITES) for site in SITES[kind]],
)
def test_mutation_census(plant, kind, site):
    survivors = {datum for datum in CENSUS[kind][1] if datum[0] == site[0]}
    caught, wrong = {}, {}
    for datum, root, path, change, judge, caught_by in planted_errors(site):
        plant(root, *path, change=change)
        caught[datum] = outcome = judge()
        plant.undo()
        if caught_by is not None and outcome not in (None, caught_by):
            wrong[datum] = outcome
    assert caught
    assert {datum for datum, outcome in caught.items() if outcome is None} == survivors
    # where a site pins what must catch its planted errors, nothing else does
    assert wrong == {}
