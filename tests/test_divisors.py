"""Divisor-power sums and convolution closed forms."""

import importlib
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from delliptic import report
from delliptic.divisors import (
    conv2, conv2_weighted, conv3, divisors, growing_table, sigma, sigma_series,
)
from delliptic.errors import CrossCheckError
from delliptic.series import QSeries

# the package re-exports the function `divisors`, which shadows the module
divisors_module = importlib.import_module("delliptic.divisors")


def brute_sigma(k, d):
    return sum(a**k for a in range(1, d + 1) if d % a == 0)


# independent brute-force oracles: literal sums over the compositions of d
def naive_conv2(d):
    return sum(brute_sigma(1, d1) * brute_sigma(1, d - d1) for d1 in range(1, d))


def naive_conv2_weighted(d):
    return sum(d1 * brute_sigma(1, d1) * brute_sigma(1, d - d1) for d1 in range(1, d))


def naive_conv3(d):
    return sum(
        brute_sigma(1, a) * brute_sigma(1, b) * brute_sigma(1, d - a - b)
        for a in range(1, d)
        for b in range(1, d - a)
    )


class TestSigmaTau:
    def test_sigma_examples(self):
        assert sigma(1, 1) == 1
        assert sigma(1, 6) == 12
        assert sigma(3, 4) == 1 + 8 + 64 == 73

    def test_sigma_against_brute_force(self):
        for d in range(1, 80):
            for k in (0, 1, 3, 5):
                assert sigma(k, d) == brute_sigma(k, d)

    def test_sigma_0_counts_divisors(self):
        assert sigma(0, 1) == 1
        assert sigma(0, 6) == 4
        assert sigma(0, 12) == len([a for a in range(1, 13) if 12 % a == 0]) == 6

    def test_divisors_sorted(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_rejects_nonpositive(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                divisors(bad)
            with pytest.raises(ValueError):
                sigma(1, bad)
            with pytest.raises(ValueError):
                sigma(0, bad)

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(303)
        found = 0
        while found < 60:
            m, n = rng.randint(2, 100), rng.randint(2, 100)
            if math.gcd(m, n) != 1 or m * n > 10**4:
                continue
            found += 1
            for k in (1, 3, 5):
                assert sigma(k, m * n) == sigma(k, m) * sigma(k, n)


class TestConvolutions:
    def test_conv2_examples(self):
        assert conv2(2) == 1
        assert conv2(4) == 1 * 4 + 3 * 3 + 4 * 1 == 17
        # closed form evaluated by hand at d = 4
        assert F(-23, 12) * 7 + F(5, 12) * 73 == 17

    def test_conv2_weighted_examples(self):
        assert conv2_weighted(2) == 1
        assert conv2_weighted(3) == 1 * 1 * 3 + 2 * 3 * 1 == 9

    def test_conv2_weighted_symmetry(self):
        # reversing the composition swaps the weight d1 <-> d2
        for d in range(2, 60):
            reverse = sum(
                (d - d1) * sigma(1, d1) * sigma(1, d - d1) for d1 in range(1, d)
            )
            assert conv2_weighted(d) + reverse == d * conv2(d)

    def test_conv3_examples(self):
        assert conv3(3) == 1
        assert conv3(4) == 9  # three orderings of (1,1,2), each contributing 3
        assert F(2359 - 8030 + 7399, 192) == 9  # closed form at d = 4

    def test_direct_sums_match_functions(self):
        for d in range(2, 41):
            assert conv2(d) == naive_conv2(d)
            assert conv2_weighted(d) == naive_conv2_weighted(d)
        for d in range(3, 41):
            assert conv3(d) == naive_conv3(d)

    def test_closed_forms_to_200(self):
        # the functions cross-check direct vs closed internally
        for d in range(2, 201):
            conv2(d)
            conv2_weighted(d)
            if d >= 3:
                conv3(d)
        # below its range each row is the empty sum, 0, so the class and
        # profile rows need no special case at d = 1 and 2
        rows = divisors_module.CLOSED_FORMS
        assert sorted(rows) == sorted(CONVOLUTIONS)
        for row in rows.values():
            assert sigma_series(row, 1).coefficient(1) == 0
        assert sigma_series(rows["conv3"], 2).coefficient(2) == 0
        assert sigma_series(rows["conv2"], 2).coefficient(2) == 1

    def test_sigma_polynomial(self):
        # sigma_0 counts divisors; coefficients are exact and summed over one denominator
        for d in range(1, 41):
            row = {(0, 0): 1, (1, 1): F(-1, 2), (2, 3): F(5, 6), (0, 5): F(-7, 10)}
            expected = (
                len(divisors(d)) - F(d, 2) * sigma(1, d) + F(5 * d * d, 6) * sigma(3, d)
                - F(7, 10) * sigma(5, d)
            )
            assert sigma_series(row, d).coefficient(d) == expected
        assert sigma_series({}, 7).coefficient(7) == 0
        assert isinstance(sigma_series({(0, 1): 2}, 6).coefficient(6), F)

    def test_rejects_small_arguments(self):
        # below their range the convolutions are the empty sum 0
        assert conv2(1) == conv2_weighted(1) == conv3(1) == conv3(2) == 0
        for convolution in (conv2, conv2_weighted, conv3):
            with pytest.raises(ValueError):
                convolution(0)


CONVOLUTIONS = {"conv2": conv2, "conv2_weighted": conv2_weighted, "conv3": conv3}
NAIVE = {"conv2": naive_conv2, "conv2_weighted": naive_conv2_weighted, "conv3": naive_conv3}


class TestConvolutionTables:
    def test_table_size_and_call_order_do_not_change_values(self, plant):
        # `plant` empties the convolution caches, so the tables are built here
        assert conv3(200) == naive_conv3(200)
        for d in range(60, 1, -1):
            assert conv2(d) == naive_conv2(d)
            assert conv2_weighted(d) == naive_conv2_weighted(d)
            if d >= 3:
                assert conv3(d) == naive_conv3(d)

    @pytest.mark.parametrize("name", sorted(CONVOLUTIONS))
    def test_perturbed_coefficient_is_caught(self, plant, name):
        d = 150

        # the closed route of every table to q^n >= d is wrong at q^d
        def bumped(original):
            def series(row, n):
                table = original(row, n)
                if row is not divisors_module.CLOSED_FORMS[name] or n < d:
                    return table
                return table + QSeries.from_function(n, lambda k: int(k == d))
            return series

        plant(divisors_module.sigma_series, change=bumped)
        assert CONVOLUTIONS[name](128) == NAIVE[name](128)  # its own table, to q^128
        for read in (d - 1, d):  # a wrong entry fails every read of the 256-table
            with pytest.raises(CrossCheckError, match=rf"^{name}\(d={d}\)"):
                CONVOLUTIONS[name](read)

        result = report.run_verification(max_d=2, order=10)
        assert len(result["checks"]) == 14
        assert result["passed"] is False
        assert result["first_failure"] == "convolution-identities"
        failed = [c for c in result["checks"] if not c["passed"]]
        assert [c["check"] for c in failed] == ["convolution-identities"]
        assert f"{name}(d={d})" in failed[0]["detail"]


class TestGrowingTable:
    @staticmethod
    def counted():
        """A growing table of q^d -> key * d, recording each build."""
        built = []

        @growing_table
        def table(key, n):
            built.append((key, n))
            if n == 256:
                raise ValueError("refused build")
            return QSeries([key * d for d in range(n + 1)])

        return table, built

    def test_holds_the_largest_table_per_key(self):
        table, built = self.counted()
        for d in (3, 1, 4, 2, 5, 100, 7):
            assert table(2, d).coefficient(d) == 2 * d
        assert built == [(2, 4), (2, 8), (2, 128)]
        table(3, 1)
        assert built[-1] == (3, 1)
        assert table.cache_info() == (4, 4, None, 2)
        assert table(2, 64).order == 128  # a read within is the held table
        for d, error in ((0, "d must be >= 1"), (1025, "d = 1025 exceeds")):
            with pytest.raises(ValueError, match=error):
                table(2, d)
        assert len(built) == 4
        table.cache_clear()
        assert table.cache_info() == (0, 0, None, 0)
        table(2, 5)
        assert built[-1] == (2, 8)

    def test_failed_build_holds_nothing_new(self):
        table, built = self.counted()
        held = table(2, 100)
        with pytest.raises(ValueError, match="refused build"):
            table(2, 200)
        assert table(2, 128) is held
        assert built == [(2, 128), (2, 256)]
        assert table.cache_info() == (1, 2, None, 1)

    def test_racing_reads_each_get_a_covering_table(self):
        table, built = self.counted()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(200):
                d = rng.choice([*range(1, 129), *range(257, 1025)])  # 256 refuses
                assert table(1, d).coefficient(d) == d

        try:
            with ThreadPoolExecutor(8) as pool:
                for future in [pool.submit(reader, seed) for seed in range(8)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert table.cache_info().currsize == 1
        assert all(n & (n - 1) == 0 for _, n in built)
