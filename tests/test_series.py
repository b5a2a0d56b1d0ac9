"""Exact scalars and truncated series."""

import random
from fractions import Fraction as F

import pytest

from delliptic.series import QSeries, format_rational, parse_rational


class TestRationals:
    def test_addition(self):
        assert F(1, 3) + F(1, 6) == F(1, 2)

    def test_multiplication(self):
        assert F(-1, 24) * 24 == -1

    def test_division_identity(self):
        assert F(5, 12) / F(5, 12) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 3) / F(0)

    def test_canonical_form(self):
        assert F(2, 4) == F(1, 2)
        assert F(1, -2).denominator == 2
        assert F(1, -2).numerator == -1

    def test_string_round_trip(self):
        for value in (F(1, 2), F(-1, 24), F(7), F(0), F(-3)):
            assert parse_rational(format_rational(value)) == value
        assert format_rational(F(-1, 24)) == "-1/24"
        assert format_rational(F(7)) == "7"

    def test_field_axioms_randomized(self):
        rng = random.Random(101)

        def sample():
            return F(rng.randint(-100, 100), rng.randint(1, 100))

        for _ in range(200):
            a, b, c = sample(), sample(), sample()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if b != 0:
                assert (a / b) * b == a


class TestQSeries:
    def test_product_truncated(self):
        one_plus = QSeries([1, 1, 0])
        one_minus = QSeries([1, -1, 0])
        assert one_plus * one_minus == QSeries([1, 0, -1])

    def test_additive_identity(self):
        f = QSeries([F(1, 3), 2, F(-5, 7)])
        assert f + QSeries.zero(2) == f

    def test_geometric_square_coefficient(self):
        # ordered pairs (d1, d2 >= 0) with d1 + d2 = 3, by enumeration
        expected = len([(i, j) for i in range(4) for j in range(4) if i + j == 3])
        assert expected == 4
        ones = QSeries.from_function(5, lambda d: 1)
        assert (ones * ones).coefficient(3) == expected

    def test_arithmetic_truncates_to_min_order(self):
        f = QSeries.from_function(5, lambda d: d)
        g = QSeries.from_function(3, lambda d: 1)
        assert (f + g).order == 3
        assert (f * g).order == 3

    def test_scalar_multiplication(self):
        f = QSeries([1, 2, 3])
        assert F(1, 2) * f == QSeries([F(1, 2), 1, F(3, 2)])
        assert 2 * f == QSeries([2, 4, 6])

    def test_power(self):
        f = QSeries([1, 1, 0, 0])
        assert f**2 == f * f
        assert f**0 == QSeries.one(3)

    def test_commutative_associative_randomized(self):
        rng = random.Random(202)

        def sample():
            return QSeries(
                [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
            )

        for _ in range(50):
            f, g, h = sample(), sample(), sample()
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f + g == g + f

    def test_product_matches_fraction_convolution(self):
        rng = random.Random(303)

        def naive(f, g):
            n = min(f.order, g.order)
            a, b = f.coefficients, g.coefficients
            return [sum((a[i] * b[d - i] for i in range(d + 1)), F(0))
                    for d in range(n + 1)]

        def sample(order):
            kind = rng.choice(("mixed", "integer", "zero"))
            if kind == "zero":
                return QSeries.zero(order)
            if kind == "integer":
                return QSeries([rng.randint(-50, 50) for _ in range(order + 1)])
            # denominators of both signs, some shared and some coprime
            return QSeries(
                [F(rng.randint(-99, 99), rng.choice((1, -2, 3, -7, 12, 25, -96)))
                 for _ in range(order + 1)]
            )

        for _ in range(200):
            f, g = sample(rng.randint(0, 12)), sample(rng.randint(0, 12))
            product = f * g
            assert product.order == min(f.order, g.order)
            assert list(product.coefficients) == naive(f, g)
            assert all(isinstance(c, F) for c in product.coefficients)

    def test_immutability(self):
        f = QSeries([1, 2])
        with pytest.raises(AttributeError):
            f.order = 5

    def test_validation(self):
        with pytest.raises(ValueError):
            QSeries([1, 2], order=5)
        with pytest.raises(ValueError):
            QSeries([], order=-1)
        with pytest.raises(ValueError):
            QSeries([1, 2]).coefficient(7)
        with pytest.raises(ValueError):
            QSeries([1, 2]).truncate(9)
        with pytest.raises(ValueError):
            QSeries([1, 2]) ** -1

    def test_json_round_trip(self):
        f = QSeries([F(1, 2), F(-1, 24), 3])
        assert f.to_json() == ["1/2", "-1/24", "3"]
        assert QSeries.from_json(f.to_json()) == f
