"""The benchmark's workloads, their inputs and their correctness gates.

Every workload drives the package from outside, through public functions
only, and calls them as module attributes (``loci.certify_quasimodularity``)
so that a traced run sees the call. A workload has three parts:

* ``setup(rng, **size)`` makes the inputs (from the seeded ``rng``);
* ``run(inputs)`` is the timed operation and returns its output;
* ``check(inputs, output, reference)`` is the correctness gate. It returns
  ``(attempted, failures)``: how many operations the gate judged and one
  message per operation that failed.

The references the gates compare against are written here, from the
benchmark's own divisor loop, and never imported from ``delliptic``, so a
wrong closed form in the package cannot hide from them. Each gate takes its
reference as an argument, so a test can hand it a wrong one.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from delliptic import cli, loci, quasimodular
from delliptic.quasimodular import NotQuasimodular, QuasimodularFit
from delliptic.series import QSeries

F = Fraction

#: the checks `delliptic verify` runs
VERIFY_CHECKS = 14
#: the coefficient series `certify_quasimodularity` fits, per family
CERTIFY_SERIES = {"m2": 2, "m2e": 2, "m21": 5, "m3": 7}


# -- the benchmark's own closed forms -----------------------------------------


def own_sigma(k: int, d: int) -> int:
    """sigma_k(d) by a plain divisor loop."""
    return sum(a**k for a in range(1, d + 1) if d % a == 0)


def m2_closed(d: int) -> dict[str, Fraction]:
    """Genus-2 d-elliptic class in the substack basis."""
    s1, s3 = own_sigma(1, d), own_sigma(3, d)
    return {"delta_0": F(2 * s3 - 2 * d * s1), "delta_1": F(4 * s3 - 4 * s1)}


def m21_closed(d: int) -> dict[str, Fraction]:
    """Marked genus-2 d-elliptic class in the substack basis."""
    s1, s3 = own_sigma(1, d), own_sigma(3, d)
    return {
        "delta_00": F(-d * s1 + s3, 12),
        "delta_01a": F(s1 - s3, 12),
        "delta_01b": F(-12 * d * s1 - s1 + 13 * s3, 12),
        "xi_1": F(2 * s3 - 2 * d * s1),
        "delta_11": F(4 * s3 - 4 * s1),
    }


CLOSED_FORMS = {"m2": m2_closed, "m21": m21_closed}


def _class_dict(cls) -> dict[str, Fraction]:
    return dict(zip(cls.labels, cls.coefficients))


# -- verify ----------------------------------------------------------------


def _verify_setup(rng, max_d: int = 30, order: int = 30) -> list[str]:
    return ["verify", "--max-d", str(max_d), "--N", str(order), "--json"]


def _verify_run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _verify_check(argv, output, reference=VERIFY_CHECKS):
    """One operation: exit 0 and every one of the ``reference`` checks passed."""
    code, text = output
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError) as exc:
        checks = []
        problems.append(f"unreadable report: {exc}")
    passed = sum(1 for c in checks if c.get("passed") is True)
    if passed != reference or len(checks) != reference:
        problems.append(f"{passed}/{len(checks)} checks passed, expected {reference}/{reference}")
    return 1, ["verify: " + "; ".join(problems)] if problems else []


# -- certify -----------------------------------------------------------------


def _certify_setup(rng, order: int = 60) -> int:
    return order


def _certify_run(order: int):
    return loci.certify_quasimodularity(order)


def _certify_check(order, report, reference=CLOSED_FORMS):
    """One operation per coefficient series: it fits, its fit reconstructs
    it, and the m2/m21 series equal the reference closed forms."""
    attempted, failures = 0, []
    counts = {family: len(fits) for family, fits in report.items()}
    if counts != CERTIFY_SERIES:
        failures.append(f"certify: series per family {counts}, expected {CERTIFY_SERIES}")
    for family in CERTIFY_SERIES:
        fits = report.get(family, {})
        for label in loci.family_labels(family):
            attempted += 1
            fit = fits.get(label)
            name = f"certify {family}/{label}"
            if not isinstance(fit, QuasimodularFit):
                failures.append(f"{name}: no fit ({fit!r})")
                continue
            series = loci.coefficient_series(family, label, order)
            if fit.reconstruct(order) != series:
                failures.append(f"{name}: fit does not reconstruct the series")
                continue
            closed = reference.get(family)
            if closed is None:
                continue
            want = [F(0)] + [closed(d)[label] for d in range(1, order + 1)]
            bad = [d for d, (a, b) in enumerate(zip(series.coefficients, want)) if a != b]
            if bad:
                failures.append(f"{name}: differs from the closed form at d={bad[0]}")
    return attempted, failures


# -- fit ---------------------------------------------------------------------


@dataclass(frozen=True)
class FitCase:
    series: QSeries
    max_weight: int
    order: int
    planted: dict | None  # None: one held-out coefficient was perturbed
    perturbed_at: int | None = None


def _rational(rng) -> Fraction:
    return F(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 12))


def _fit_setup(rng, count: int = 18, order: int = 150) -> list[FitCase]:
    """Series i is a rational combination of every monomial of weight <= w,
    w = (4, 6, 8)[i % 3], with seeded coefficients; every fourth one has a
    held-out coefficient (a seeded index >= 40, far above every basis size)
    changed, which no form of weight <= 8 can absorb. The mix is fixed, so
    the seed changes the numbers and the order but not the amount of work."""
    cases = []
    for i in range(count):
        weight = (4, 6, 8)[i % 3]
        basis = quasimodular.quasimodular_basis(weight, order)
        planted = {monomial: _rational(rng) for monomial, _ in basis}
        series = sum(
            (c * expansion for c, (_, expansion) in zip(planted.values(), basis)),
            QSeries.zero(order),
        )
        if i % 4 != 3:
            cases.append(FitCase(series, weight, order, planted))
        else:
            k = rng.randint(40, order)
            coeffs = list(series.coefficients)
            coeffs[k] += _rational(rng)
            cases.append(FitCase(QSeries(coeffs, order), weight, order, None, k))
    rng.shuffle(cases)
    return cases


def _fit_run(cases: list[FitCase]) -> list:
    return [quasimodular.fit_quasimodular(c.series, c.max_weight, c.order) for c in cases]


def _fit_check(cases, results, reference=None):
    """One operation per fit. ``reference`` overrides the planted
    coefficients (a list parallel to ``cases``), for testing the gate."""
    expected = reference or [c.planted for c in cases]
    failures = []
    for i, (case, result, want) in enumerate(zip(cases, results, expected)):
        if want is None:
            if not isinstance(result, NotQuasimodular):
                failures.append(f"fit #{i}: perturbed at q^{case.perturbed_at} but not refused")
        elif not isinstance(result, QuasimodularFit) or result.as_dict() != want:
            failures.append(f"fit #{i}: planted coefficients did not come back")
    if len(results) != len(cases):
        failures.append(f"fit: {len(results)} results for {len(cases)} series")
    return len(cases), failures


# -- pointed-sweep -------------------------------------------------------------


def _sweep_setup(rng, max_d: int = 120) -> list[int]:
    """d = 1..max_d in a seeded order; the total work does not depend on it."""
    ds = list(range(1, max_d + 1))
    rng.shuffle(ds)
    return ds


def _sweep_run(ds: list[int]) -> list:
    return [loci.delliptic_class_m21(d) for d in ds]


def _sweep_check(ds, classes, reference=m21_closed):
    failures = [
        f"pointed-sweep d={d}: class differs from the closed form"
        for d, cls in zip(ds, classes)
        if _class_dict(cls) != reference(d)
    ]
    if len(classes) != len(ds):
        failures.append(f"pointed-sweep: {len(classes)} classes for {len(ds)} degrees")
    return len(ds), failures


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable
    #: layers expected to hold most of the traced operation's self time
    dominant: tuple[str, ...]
    #: a small size, for smoke tests
    tiny: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", _verify_setup, _verify_run, _verify_check,
                 ("divisors", "covers"), {"max_d": 4, "order": 10}),
        Workload("certify", _certify_setup, _certify_run, _certify_check,
                 ("covers",), {"order": 12}),
        Workload("fit", _fit_setup, _fit_run, _fit_check,
                 ("quasimodular", "linalg"), {"count": 4, "order": 60}),
        Workload("pointed-sweep", _sweep_setup, _sweep_run, _sweep_check,
                 ("loci",), {"max_d": 8}),
    )
}
