"""Exact scalars and truncated series."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction as F
from math import gcd
from operator import add, mul, sub

import pytest

from delliptic.series import QSeries, _pack, _unpack, format_rational, parse_rational


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

    @pytest.mark.parametrize(
        "item", [1, ["2"], None, "1/0", "x", "0.5", "1e3", "1_000", "\u0663"]
    )
    def test_parse_rejects_non_rationals(self, item):
        with pytest.raises(ValueError):
            parse_rational(item)

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
        # a power is a repeated product; a series has no ** operator
        f = QSeries([1, 1, 0, 0])
        assert f * f == QSeries([1, 2, 1, 0])
        assert f * f * f == QSeries([1, 3, 3, 1])
        with pytest.raises(TypeError):
            f**2

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

    def test_negative_truncation_refused_naming_it(self):
        with pytest.raises(ValueError, match="^truncation order must be >= 0, got -1$"):
            QSeries([1, 2]).truncate(-1)

    @pytest.mark.parametrize("other", [0.5, "1", [1, 2], None])
    def test_non_series_operand(self, other):
        # + and - take a series only, * a series or an exact scalar, on either side
        f = QSeries([1, 2])
        for op in (add, sub, mul):
            with pytest.raises(TypeError):
                op(f, other)
            with pytest.raises(TypeError):
                op(other, f)
        assert (f == other) is False
        assert (f != other) is True

    def test_empty_list_refused_naming_it(self):
        # not as a truncation order -1 the caller never passed
        for empty in ([], (), iter([])):
            with pytest.raises(ValueError, match="^a series needs at least its q\\^0 "
                                                 "coefficient, got an empty list$"):
                QSeries(empty)
        with pytest.raises(ValueError, match="empty list"):
            QSeries.from_json([])

    @pytest.mark.parametrize("inexact", [0.1, "1/2", Decimal("0.5")])
    def test_inexact_coefficients_refused(self, inexact):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            QSeries([inexact, 1])
        with pytest.raises(TypeError):
            QSeries.from_function(2, lambda d: inexact if d == 2 else d)

    def test_json_round_trip(self):
        f = QSeries([F(1, 2), F(-1, 24), 3])
        assert f.to_json() == ["1/2", "-1/24", "3"]
        assert QSeries.from_json(f.to_json()) == f


def assert_normal(f):
    """The integer normal form: order + 1 int numerators over a positive
    denominator coprime to them all, and denominator 1 for the zero series."""
    assert type(f.numerators) is tuple and len(f.numerators) == f.order + 1
    assert all(type(x) is int for x in f.numerators)
    assert type(f.denominator) is int and f.denominator > 0
    assert gcd(f.denominator, *f.numerators) == 1
    if not any(f.numerators):
        assert f.denominator == 1


class TestIntegerRepresentation:
    """The integer arithmetic against coefficient-wise Fraction arithmetic."""

    @staticmethod
    def sample(rng, order):
        kind = rng.choice(("mixed", "integer", "zero", "one denominator"))
        if kind == "zero":
            return QSeries.zero(order)
        if kind == "integer":
            return QSeries([rng.randint(-50, 50) for _ in range(order + 1)])
        if kind == "one denominator":
            q = rng.choice((2, 12, 35))
            return QSeries([F(rng.randint(-99, 99) * q, q) for _ in range(order + 1)])
        return QSeries(
            [F(rng.randint(-99, 99), rng.choice((1, -2, 3, -7, 12, 25, -96)))
             for _ in range(order + 1)]
        )

    def test_matches_fraction_reference(self):
        rng = random.Random(404)
        scalars = [0, 1, -1, 6, -12, F(0), F(-3, 4), F(5, 12), F(-1, 96)]
        for _ in range(300):
            f, g = self.sample(rng, rng.randint(0, 12)), self.sample(rng, rng.randint(0, 12))
            a, b = f.coefficients, g.coefficients
            n = min(f.order, g.order)
            s = rng.choice(scalars)
            cases = [
                (f + g, [a[d] + b[d] for d in range(n + 1)]),
                (f - g, [a[d] - b[d] for d in range(n + 1)]),
                (-f, [-x for x in a]),
                (s * f, [s * x for x in a]),
                (f * s, [x * s for x in a]),
                (f * g, [sum((a[i] * b[d - i] for i in range(d + 1)), F(0))
                         for d in range(n + 1)]),
                (f.truncate(n), list(a[: n + 1])),
            ]
            for result, want in cases:
                assert_normal(result)
                assert list(result.coefficients) == want
                assert result == QSeries(want)
                assert result.is_zero() == (not any(want))

    def test_constructor_normal_form(self):
        rng = random.Random(505)
        for _ in range(100):
            assert_normal(self.sample(rng, rng.randint(0, 12)))
        assert QSeries([F(1, 2), F(3, 2)]).numerators == (1, 3)
        assert QSeries([F(1, 2), F(3, 2)]).denominator == 2
        assert QSeries([F(2, 4), F(1, 3)]).numerators == (3, 2)
        assert QSeries([F(2, 4), F(1, 3)]).denominator == 6
        assert QSeries.from_json(["0", "0/5", "-0"]).denominator == 1

    def test_every_operation_reduces(self):
        half = QSeries([1, F(1, 2)])
        assert half.truncate(0) == QSeries([1])
        assert_normal(half.truncate(0))
        assert half.truncate(0).denominator == 1
        # the halves cancel in the sum, the product and the scalar multiple
        assert (half + QSeries([0, F(1, 2)])).denominator == 1
        assert (half - QSeries([0, F(1, 2)])) == QSeries([1, 0])
        assert (2 * half).denominator == 1
        assert (F(1, 2) * QSeries([2, 4])) == QSeries([1, 2])
        assert (QSeries([2, 0]) * half).denominator == 1
        for zero in (0 * half, F(0) * half, half - half, half * QSeries.zero(1), -QSeries.zero(1)):
            assert zero == QSeries.zero(1)
            assert zero.denominator == 1 and zero.numerators == (0, 0)

    def test_equal_values_equal_and_hash_equal(self):
        rng = random.Random(606)
        for _ in range(50):
            f = self.sample(rng, rng.randint(0, 8))
            routes = [
                QSeries(f.coefficients),
                QSeries.from_json(f.to_json()),
                QSeries.from_function(f.order, f.coefficient),
                f + QSeries.zero(f.order),
                f * QSeries.one(f.order),
                F(7, 3) * (F(3, 7) * f),
                -(-f),
                (f - QSeries([F(1, 11)] * (f.order + 1))) + QSeries([F(1, 11)] * (f.order + 1)),
                QSeries(list(f.coefficients) + [F(5, 13)]).truncate(f.order),
            ]
            for g in routes:
                assert g == f
                assert hash(g) == hash(f)
                assert (g.numerators, g.denominator) == (f.numerators, f.denominator)

    def test_coefficients_are_fractions(self):
        for f in (QSeries([1, 2, 3]), QSeries([F(1, 2), -3, F(5, 7)]), QSeries.zero(3)):
            coefficients = f.coefficients
            assert type(coefficients) is tuple
            assert all(type(c) is F for c in coefficients)
            assert all(type(f.coefficient(d)) is F for d in range(f.order + 1))
        f = QSeries([F(1, 2), -3, F(5, 7)])
        assert f.coefficients == (F(1, 2), F(-3), F(5, 7))
        assert f.coefficient(2) == F(5, 7)
        assert f.numerators == (7, -42, 10) and f.denominator == 14


def schoolbook(a, b, n):
    """q^0..q^n of the product of the int polynomials a and b."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


class TestBigIntProduct:
    """The product (one big-int multiplication of packed numerators) against
    a schoolbook int convolution of the numerators."""

    MAGNITUDES = (1, 9, 255, 2**31, 2**64 + 13, 2**100 + 1)

    @staticmethod
    def check(f, g):
        n = min(f.order, g.order)
        product = f * g
        assert_normal(product)
        assert product.order == n
        want = schoolbook(f.numerators, g.numerators, n)
        assert product == QSeries([F(c, f.denominator * g.denominator) for c in want])

    def test_seeded_signed_numerators(self):
        rng = random.Random(707)

        def sample():
            order = rng.randint(0, 20)
            if rng.random() < 0.1:
                return QSeries.zero(order)
            top = rng.choice(self.MAGNITUDES)
            q = rng.choice((1, 2, 35, 2**67 + 3))
            return QSeries([F(rng.randint(-top, top), q) for _ in range(order + 1)])

        for _ in range(300):
            self.check(sample(), sample())

    def test_bound_attained(self):
        # constant numerators +-M: the top coefficient is +-(n + 1) M^2, the
        # bound the digit width is chosen from
        for order in (0, 1, 2, 7, 30):
            for top in self.MAGNITUDES:
                for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                    f = QSeries([sa * top] * (order + 1))
                    g = QSeries([F(sb * top, 7)] * (order + 1))
                    self.check(f, g)
                    assert (f * g).coefficient(order) == F(sa * sb * (order + 1) * top * top, 7)

    def test_zero_and_order_zero(self):
        for order in (0, 3):
            f = QSeries([F(-5, 6)] + [2**70] * order)
            for zero in (QSeries.zero(order), QSeries.zero(order + 2)):
                assert f * zero == zero * f == QSeries.zero(order)
                assert (f * zero).denominator == 1
        assert QSeries([F(-3, 4)]) * QSeries([F(2, 9), 5]) == QSeries([F(-1, 6)])
        self.check(QSeries([-(2**64)]), QSeries([2**64]))


class TestPacking:
    """_pack and _unpack, the one Kronecker format: digits of w bytes, each
    in -2^(8w - 1) <= x < 2^(8w - 1)."""

    @staticmethod
    def limits(width):
        """Both ends of the digit range, and the digits beside 0."""
        half = 1 << (8 * width - 1)
        return (-half, -1, 0, 1, half - 1)

    def test_round_trip_at_the_digit_limits(self):
        # digits from the n-th up, as a product carries, are dropped
        for width in (1, 2, 3):
            for n in range(1, 6):
                for xs in itertools.product(self.limits(width), repeat=n):
                    xs = list(xs)
                    packed = _pack(xs, width)
                    assert packed == sum(x << (8 * width * i) for i, x in enumerate(xs))
                    for high in (0, 1, -1, 2**70 + 3):
                        assert _unpack(packed + (high << (8 * width * n)), n, width) == xs

    def test_digit_outside_the_range_raises(self):
        for width in (1, 2, 3):
            half = 1 << (8 * width - 1)
            for n in range(1, 6):
                for outside in (half, -half - 1, 2**70):
                    for at in (0, n - 1):
                        xs = [0] * n
                        xs[at] = outside
                        with pytest.raises(OverflowError):
                            _pack(xs, width)
