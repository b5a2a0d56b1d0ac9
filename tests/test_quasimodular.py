"""Eisenstein expansions, derivative identities, and exact fitting."""

import copy
import dataclasses
import random
import re
from fractions import Fraction as F

import pytest

from delliptic import linalg, loci, quasimodular, report
from delliptic.divisors import sigma
from delliptic.quasimodular import (
    NotQuasimodular,
    QModMonomial,
    QuasimodularFit,
    eisenstein,
    fit_quasimodular,
    q_derivative,
    quasimodular_basis,
)
from delliptic.series import QSeries, _over_common_denominator


class TestEisenstein:
    def test_weight2_expansion(self):
        assert eisenstein(2, 2) == QSeries([1, -24, -72])

    def test_weight4_expansion(self):
        assert eisenstein(4, 1) == QSeries([1, 240])

    def test_weight6_constant_term(self):
        assert eisenstein(6, 0) == QSeries([1])

    def test_general_coefficients(self):
        e6 = eisenstein(6, 20)
        for d in range(1, 21):
            assert e6.coefficient(d) == -504 * sigma(5, d)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            eisenstein(8, 10)
        with pytest.raises(ValueError):
            eisenstein(2, -1)


class TestDerivative:
    def test_constant_derivative(self):
        assert q_derivative(QSeries.one(5)) == QSeries.zero(5)

    def test_order_preserved(self):
        f = QSeries([1, 2, 3, 4])
        assert q_derivative(f) == QSeries([0, 2, 6, 12])

    def test_weight2_identity(self):
        e2, e4 = eisenstein(2, 30), eisenstein(4, 30)
        assert q_derivative(e2) == F(1, 12) * (e2 * e2 - e4)

    def test_weight4_identity(self):
        e2, e4, e6 = (eisenstein(k, 30) for k in (2, 4, 6))
        assert q_derivative(e4) == F(1, 3) * (e2 * e4 - e6)

    def test_weight6_identity(self):
        e2, e4, e6 = (eisenstein(k, 30) for k in (2, 4, 6))
        assert q_derivative(e6) == F(1, 2) * (e2 * e6 - e4 * e4)


class TestBasis:
    def test_weight0(self):
        basis = quasimodular_basis(0, 10)
        assert [m for m, _ in basis] == [QModMonomial(0, 0, 0)]
        assert basis[0][1] == QSeries.one(10)

    def test_weight4_count(self):
        # ascending lexicographic order on (weight, a, b, c)
        monomials = [m for m, _ in quasimodular_basis(4, 10)]
        assert monomials == [
            QModMonomial(0, 0, 0),
            QModMonomial(1, 0, 0),
            QModMonomial(0, 1, 0),
            QModMonomial(2, 0, 0),
        ]

    def test_weight6_count(self):
        monomials = {(m.a, m.b, m.c) for m, _ in quasimodular_basis(6, 10)}
        assert monomials == {
            (0, 0, 0),
            (1, 0, 0),
            (2, 0, 0),
            (0, 1, 0),
            (3, 0, 0),
            (1, 1, 0),
            (0, 0, 1),
        }

    def test_ordered_by_weight(self):
        keys = [m.sort_key() for m, _ in quasimodular_basis(8, 30)]
        assert keys == sorted(keys)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            quasimodular_basis(6, 5)

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            quasimodular_basis(3, 30)


class TestFit:
    def test_sigma3_series(self):
        f = QSeries.from_function(30, lambda d: 0 if d == 0 else sigma(3, d))
        fit = fit_quasimodular(f, 4, 30)
        assert isinstance(fit, QuasimodularFit)
        # (E4 - 1)/240
        assert fit.as_dict() == {
            QModMonomial(0, 1, 0): F(1, 240),
            QModMonomial(0, 0, 0): F(-1, 240),
        }

    def test_divisor_count_series_refused(self):
        f = QSeries.from_function(30, lambda d: 0 if d == 0 else d * sigma(0, d))
        fit = fit_quasimodular(f, 6, 30)
        assert fit == NotQuasimodular(6, 30)

    def test_zero_series_empty_combination(self):
        fit = fit_quasimodular(QSeries.zero(30), 6, 30)
        assert isinstance(fit, QuasimodularFit)
        assert fit.coefficients == ()
        assert fit.reconstruct() == QSeries.zero(30)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_eisenstein_is_its_own_fit(self, k):
        fit = fit_quasimodular(eisenstein(k, 30), k, 30)
        exponents = {2: (1, 0, 0), 4: (0, 1, 0), 6: (0, 0, 1)}[k]
        assert fit.as_dict() == {QModMonomial(*exponents): F(1)}

    def test_polynomial_sigma_closure(self):
        # P(d) sigma_k(d) lands at weight 2 deg(P) + k + 1 for k odd
        rng = random.Random(404)
        for k in (1, 3, 5):
            for degree in (0, 1, 2):
                coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [
                    rng.randint(1, 5)
                ]
                poly = lambda d: sum(c * d**i for i, c in enumerate(coeffs))
                f = QSeries.from_function(
                    30, lambda d: 0 if d == 0 else poly(d) * sigma(k, d)
                )
                fit = fit_quasimodular(f, 2 * degree + k + 1, 30)
                assert isinstance(fit, QuasimodularFit), (k, degree)

    def test_held_out_coefficients_catch_fakes(self):
        # agree with a fit target on the first 8 coefficients, diverge later
        base = QSeries.from_function(30, lambda d: 0 if d == 0 else sigma(3, d))
        corrupted = QSeries(
            [c if d < 8 else c + 1 for d, c in enumerate(base.coefficients)]
        )
        assert fit_quasimodular(corrupted, 4, 30) == NotQuasimodular(4, 30)

    def test_stable_under_basis_permutation(self):
        f = QSeries.from_function(
            30, lambda d: 0 if d == 0 else (3 * d - 1) * sigma(1, d)
        )
        reference = fit_quasimodular(f, 6, 30)
        assert isinstance(reference, QuasimodularFit)
        basis = quasimodular_basis(6, 30)
        rng = random.Random(505)
        for _ in range(5):
            shuffled = basis[:]
            rng.shuffle(shuffled)
            matrix = [
                [expansion.coefficients[d] for _, expansion in shuffled]
                for d in range(31)
            ]
            solution = linalg.solve_any(matrix, f.coefficients)
            assert solution is not None
            rebuilt = QSeries.zero(30)
            for (_, expansion), x in zip(shuffled, solution):
                rebuilt = rebuilt + x * expansion
            assert rebuilt == reference.reconstruct()

    def test_common_denominator_target(self):
        # the m21 delta_00 series is (sigma_3 - d sigma_1) / 12, so its
        # integer target has a scale above 1
        series = loci.coefficient_series("m21", "delta_00", 30)
        assert series.denominator > 1
        fit = fit_quasimodular(series, 6, 30)
        assert isinstance(fit, QuasimodularFit)
        assert fit.as_dict() == reference_fit(series, 6, 30)
        assert fit.reconstruct() == series
        # a held-out coefficient moved by 1/(7 * denominator) changes the scale
        # too, and no form of weight <= 6 absorbs it
        held_out = len(quasimodular_basis(6, 30)) + 5
        nudge = F(1, 7 * series.denominator)
        perturbed = QSeries(
            [c + nudge * (d == held_out) for d, c in enumerate(series.coefficients)]
        )
        assert perturbed.denominator == 7 * series.denominator
        assert fit_quasimodular(perturbed, 6, 30) == NotQuasimodular(6, 30)
        assert reference_fit(perturbed, 6, 30) == NotQuasimodular(6, 30)

    def test_underdetermined_is_precondition_failure(self):
        with pytest.raises(ValueError):
            fit_quasimodular(QSeries.zero(30), 6, 7)
        # the 67-monomial weight-20 basis at order 67: refused before its
        # 68-row System is built, so nothing is cached for it
        before = quasimodular._fit_plan.cache_info().currsize
        with pytest.raises(ValueError, match="order 67 must strictly exceed the basis size 67"):
            fit_quasimodular(QSeries.zero(68), 20, 67)
        assert quasimodular._fit_plan.cache_info().currsize == before

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_quasimodular(QSeries.zero(10), 6, 20)

    def test_short_series_refused_before_its_basis_is_built(self):
        # the basis System of (24, 200) takes about 2.5 s to build cold (2-vCPU
        # Xeon VM); a series too short to fit must be refused without it
        before = quasimodular._fit_plan.cache_info()
        with pytest.raises(ValueError, match="series order 4 is below the fit order 200"):
            fit_quasimodular(QSeries.from_function(4, lambda d: d), 24, 200)
        assert quasimodular._fit_plan.cache_info() == before

    @pytest.mark.parametrize("call,integer_call,message", [
        (lambda: eisenstein(4, 30.0), lambda: eisenstein(4, 30),
         "order must be an integer, got 30.0"),
        (lambda: quasimodular_basis(6, 30.0), lambda: quasimodular_basis(6, 30),
         "order must be an integer, got 30.0"),
        (lambda: quasimodular_basis(6.0, 30), lambda: quasimodular_basis(6, 30),
         "max_weight must be an integer, got 6.0"),
        (lambda: fit_quasimodular(eisenstein(4, 30), 6, 30.0),
         lambda: fit_quasimodular(eisenstein(4, 30), 6, 30), "order must be an integer, got 30.0"),
        (lambda: fit_quasimodular(eisenstein(4, 30), 6.0, 30),
         lambda: fit_quasimodular(eisenstein(4, 30), 6, 30),
         "max_weight must be an integer, got 6.0"),
        (lambda: sigma(1, 3.0), lambda: sigma(1, 3), "d must be an integer, got 3.0"),
        (lambda: sigma(1.0, 3), lambda: sigma(1, 3), "k must be an integer, got 1.0"),
    ], ids=["eisenstein", "basis-order", "basis-weight", "fit-order", "fit-weight",
            "sigma-d", "sigma-k"])
    def test_non_integer_refused_in_every_cache_state(self, empty_caches, call, integer_call,
                                                      message):
        # before the integer call (empty caches) and after it (its entry
        # held, under a key equal to the refused one's)
        for _ in range(2):
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                call()
            integer_call()

    def test_json_shapes(self):
        refused = NotQuasimodular(6, 30).to_json_dict()
        assert refused == {"not_quasimodular": {"max_weight": 6, "order": 30}}
        f = QSeries.from_function(30, lambda d: 0 if d == 0 else sigma(1, d))
        fitted = fit_quasimodular(f, 2, 30).to_json_dict()
        assert fitted["monomials"] == [
            {"a": 0, "b": 0, "c": 0, "coeff": "1/24"},
            {"a": 1, "b": 0, "c": 0, "coeff": "-1/24"},
        ]


def reference_fit(f: QSeries, max_weight: int, order: int):
    """The fit by `linalg.solve_any`: Fraction elimination over every
    coefficient, free monomials 0."""
    basis = quasimodular_basis(max_weight, order)
    matrix = [[s.coefficients[d] for _, s in basis] for d in range(order + 1)]
    solution = linalg.solve_any(matrix, f.truncate(order).coefficients)
    if solution is None:
        return NotQuasimodular(max_weight, order)
    return {m: x for (m, _), x in zip(basis, solution) if x != 0}


def matches_reference(matrix, rhs) -> str:
    """Assert that `linalg.solve_unique` agrees with `linalg.solve_any`:
    the same answer, InconsistentSystemError exactly where the reference
    returns None, SingularSystemError exactly where the rank is below n."""
    want = linalg.solve_any(matrix, rhs)
    _, pivots, _ = linalg._eliminate(matrix, rhs)
    if want is None:
        with pytest.raises(linalg.InconsistentSystemError):
            linalg.solve_unique(matrix, rhs)
        return "inconsistent"
    if len(pivots) < len(matrix[0]):
        with pytest.raises(linalg.SingularSystemError):
            linalg.solve_unique(matrix, rhs)
        return "singular"
    assert linalg.solve_unique(matrix, rhs) == want
    return "unique"


class TestIntegerRoute:
    """The cached integer factorisation against Fraction elimination."""

    @pytest.mark.parametrize("max_weight", [0, 2, 4, 6, 8])
    def test_matches_fraction_elimination(self, max_weight):
        rng = random.Random(700 + max_weight)
        size = len(quasimodular_basis(max_weight, 150))
        refused = 0
        for order in (size + 1, 150):
            basis = quasimodular_basis(max_weight, order)
            planted = sum(
                (F(rng.randint(-60, 60), rng.randint(1, 12)) * s for _, s in basis),
                QSeries.zero(order),
            )
            coeffs = list(planted.coefficients)
            coeffs[rng.randint(size, order)] += F(rng.randint(1, 9), rng.randint(1, 9))
            perturbed = QSeries(coeffs, order)
            for f in (planted, QSeries.zero(order), perturbed):
                fit = fit_quasimodular(f, max_weight, order)
                want = reference_fit(f, max_weight, order)
                if isinstance(want, NotQuasimodular):
                    assert fit == want
                    refused += 1
                else:
                    assert isinstance(fit, QuasimodularFit)
                    assert fit.as_dict() == want
        assert refused >= 1

    def test_rank_deficient_matrix(self):
        rng = random.Random(909)
        outcomes = set()
        for _ in range(20):
            c0, c2, c5 = ([rng.randint(-9, 9) for _ in range(9)] for _ in range(3))
            # c1 = 2 c0, c3 = c0 - c2 and c4 = 0 lie in the span of earlier
            # columns; rows 6..8 repeat rows 0..2
            columns = [c0, [2 * x for x in c0], c2, [x - y for x, y in zip(c0, c2)],
                       [0] * 9, c5]
            rows = [list(r) for r in zip(*columns)]
            rows[6:] = [rows[0][:], rows[1][:], rows[2][:]]
            system = linalg.System(rows)
            plan = system.plan
            matrix = [[F(x) for x in row] for row in rows]
            _, pivots, _ = linalg._eliminate(matrix, [F(0)] * 9)
            assert list(plan.pivots) == pivots
            square = [[rows[r][c] for c in plan.pivots] for r in plan.pivot_rows]
            # the kept block ends in delta, and solving against each pivot
            # column returns delta times its unit vector
            assert plan.block[-1][-1] == plan.delta
            for k in range(len(square)):
                assert linalg._back_substitute(plan, [row[k] for row in square]) == [
                    plan.delta * (j == k) for j in range(len(square))]
            x = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
            consistent = [sum(a * v for a, v in zip(row, x)) for row in matrix]
            noise = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(9)]
            for rhs in (consistent, noise, [F(0)] * 9):
                numerators, scale = _over_common_denominator(rhs)
                assert system.solve(numerators, scale) == linalg.solve_any(matrix, rhs)
            # rational rows: each scaled by its own rational, and the
            # independent columns alone, so that every outcome occurs
            scaled = [[F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7)) * v
                       for v in row] for row in matrix]
            for system in (scaled, [[row[c] for c in (0, 2, 5)] for row in scaled]):
                x = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in system[0]]
                consistent = [sum(a * v for a, v in zip(row, x)) for row in system]
                for rhs in (consistent, noise, [F(0)] * 9):
                    outcomes.add(matches_reference(system, rhs))
        assert outcomes == {"inconsistent", "singular", "unique"}


class TestFitMutationProbes:
    def test_bumped_factor_fails_certification(self, plant):
        def bumped(original):
            def fit_plan(max_weight, order):
                monomials, system = original(max_weight, order)
                system = copy.copy(system)
                block = [list(row) for row in system.plan.block]
                block[0][0] += 1
                system.plan = dataclasses.replace(system.plan, block=tuple(map(tuple, block)))
                return monomials, system
            return fit_plan

        plant(quasimodular._fit_plan, change=bumped)
        result = report.run_verification(10, 20)
        assert result["passed"] is False
        by_name = {c["check"]: c for c in result["checks"] if not c["passed"]}
        assert "quasimodularity-certification" in by_name
        assert by_name["quasimodularity-certification"]["detail"].startswith(
            "CrossCheckError: series not quasimodular"
        )

    def test_residual_accepting_everything_fails_reconstruction(self, plant):
        # the integer residual is the fit's one acceptance test; planted to
        # accept everything, the fit of a series corrupted at d=20 is that of
        # the clean series, and only its reconstruction (what criterion 5 and
        # the certify gate compare) and the verification report expose it
        plant(linalg._every_row_holds, change=lambda original: lambda *args: True)
        base = QSeries.from_function(30, lambda d: 0 if d == 0 else sigma(3, d))
        corrupted = QSeries([c + (d == 20) for d, c in enumerate(base.coefficients)])
        fit = fit_quasimodular(corrupted, 4, 30)
        assert isinstance(fit, QuasimodularFit)
        assert fit.reconstruct() == base
        assert fit.reconstruct() != corrupted
        result = report.run_verification(10, 20)
        assert result["passed"] is False
        by_name = {c["check"]: c for c in result["checks"] if not c["passed"]}
        assert by_name["triple-branch-cancellation"]["detail"].startswith(
            "CrossCheckError: chain series unexpectedly fits"
        )
