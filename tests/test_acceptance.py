"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every comparison is exact (zero tolerance); the only non-exact limits are
the stated runtime budgets.
"""

import time
from fractions import Fraction as F

from delliptic.chow import pushforward_m21_to_m2
from delliptic.covers import (
    Partition,
    count_dd2222,
    count_pointed_isogenies,
    count_sublattices,
    hurwitz_number,
)
from delliptic.divisors import conv2, conv2_weighted, conv3, divisors, sigma
from delliptic.loci import (
    boundary_profile_m2,
    boundary_profile_m3,
    certify_quasimodularity,
    coefficient_series,
    delliptic_class_m2,
    delliptic_class_m21,
    delliptic_class_m3,
    fixed_target_class_m2,
    product_surfaces_m3,
    triple_branch_cancellation,
    triple_branch_chain_sum,
)
from delliptic.quasimodular import NotQuasimodular, QuasimodularFit, eisenstein, q_derivative


def _passed(number: int, detail: str) -> None:
    print(f"PASS criterion {number}: {detail}")


def test_criterion_1_genus2_class():
    start = time.perf_counter()
    for d in range(1, 31):
        cls = delliptic_class_m2(d)
        s1, s3 = sigma(1, d), sigma(3, d)
        assert cls.coefficient("delta_0") == 2 * s3 - 2 * d * s1
        assert cls.coefficient("delta_1") == 4 * s3 - 4 * s1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed(1, f"genus-2 solver equals closed form for d=1..30 in {elapsed:.3f}s")


def test_criterion_2_genus3_class():
    start = time.perf_counter()
    for d in range(1, 21):
        cls = delliptic_class_m3(d)
        s1, s3, s5 = sigma(1, d), sigma(3, d), sigma(5, d)
        expected = {
            "lambda^2": (-6264 * d * d + 6780 * d - 960) * s1
            + (5592 * d - 5400) * s3
            + 252 * s5,
            "lambda*delta_0": (1224 * d * d - 1068 * d + 156) * s1
            + (-1152 * d + 840) * s3,
            "lambda*delta_1": (2160 * d * d - 696 * d + 216) * s1
            + (-1920 * d + 240) * s3,
            "delta_0^2": (-54 * d * d + 39 * d - 6) * s1 + (51 * d - 30) * s3,
            "delta_0*delta_1": (-216 * d * d + 36 * d - 12) * s1 + 192 * d * s3,
            "delta_1^2": (-216 * d * d - 132 * d + 36) * s1 + (192 * d + 120) * s3,
            "kappa_2": (216 * d * d - 444 * d + 60) * s1 + (-192 * d + 360) * s3,
        }
        for label, value in expected.items():
            assert cls.coefficient(label) == value, (d, label)
    assert not any(delliptic_class_m3(1).coefficients)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    _passed(2, f"genus-3 7x7 solve equals all closed coefficients for d=1..20 in {elapsed:.3f}s")


def test_criterion_3_fixed_target_pointed_and_pushforward():
    for d in range(1, 31):
        fixed = fixed_target_class_m2(d)
        s1, s3 = sigma(1, d), sigma(3, d)
        assert fixed.coefficient("delta_00") == (F(-22, 5) * d + F(2, 5)) * s1 + 4 * s3
        assert fixed.coefficient("delta_01") == (F(-12, 5) * d - F(8, 5)) * s1 + 4 * s3

        pointed = delliptic_class_m21(d)
        assert pointed.coefficient("delta_00") == F(-1, 12) * d * s1 + F(1, 12) * s3
        assert pointed.coefficient("delta_01a") == F(1, 12) * s1 - F(1, 12) * s3
        assert pointed.coefficient("delta_01b") == (-d - F(1, 12)) * s1 + F(13, 12) * s3
        assert pointed.coefficient("xi_1") == 2 * s3 - 2 * d * s1
        assert pointed.coefficient("delta_11") == 4 * s3 - 4 * s1

        assert pushforward_m21_to_m2(pointed) == delliptic_class_m2(d)
    _passed(3, "fixed-target and pointed classes exact, pushforward coherent, d=1..30")


def test_criterion_4_internal_redundancy():
    for d in range(1, 31):
        # reducible-boundary number of the genus-2 profile, via both the
        # product route and the convolution closed form
        profile = boundary_profile_m2(d)
        direct = 2 * sum(sigma(1, d1) * sigma(1, d - d1) for d1 in range(1, d))
        assert profile["Delta_01"] == direct

        # the two product presentations of the same genus-3 test surface
        surfaces = product_surfaces_m3(d)
        assert surfaces["Delta_[11]a"] == surfaces["Delta_[11]b"]

        # the surface rationally equivalent to the vanishing one totals zero
        assert surfaces["Delta_[7]"] == 0

        boundary_profile_m3(d)  # raises on any internal route disagreement
    _passed(4, "dual routes, surface-route agreement and vanishing totals, d=1..30")


def test_criterion_5_quasimodularity_certification():
    order = 30
    results = certify_quasimodularity(order)
    counted = 0
    for family, fits in results.items():
        for label, fit in fits.items():
            assert isinstance(fit, QuasimodularFit), (family, label)
            # the reconstruction must match on all 31 coefficients, the 23+
            # beyond the 7-element basis being the held-out certificate
            assert fit.reconstruct() == coefficient_series(family, label, order)
            counted += 1
    assert counted == 16
    _passed(5, f"all {counted} coefficient series fit at weight 6, order {order}")


def test_criterion_6_triple_branch_cancellation():
    chain_fit, split_fit, sum_fit = triple_branch_cancellation(30)
    assert chain_fit == NotQuasimodular(6, 30)
    assert split_fit == NotQuasimodular(6, 30)
    assert isinstance(sum_fit, QuasimodularFit)
    for d in range(1, 41):
        direct = sum(F((a - 1) * (a - 2), 6) * (d // a) for a in divisors(d))
        assert triple_branch_chain_sum(d) == direct
        assert direct == (F(d, 6) + F(1, 3)) * sigma(1, d) - F(d, 2) * sigma(0, d)
    _passed(6, "parts refuse, sum fits, chain sum equals closed form for d<=40")


def test_criterion_7_hurwitz_oracle():
    start = time.perf_counter()
    for d in range(3, 8):
        total = Partition([d])
        third = Partition([3] + [1] * (d - 3))
        assert hurwitz_number(d, [total, total, third]) == F((d - 1) * (d - 2), 6)
    for a in range(1, 7):
        for b in range(a + 1, 8 - a):
            d = a + b
            pair = Partition([a, b])
            third = Partition([3] + [1] * (d - 3))
            assert hurwitz_number(d, [pair, pair, third]) == 1, (a, b)
    for a in (2, 3):
        d = 2 * a
        pair = Partition([a, a])
        third = Partition([3] + [1] * (d - 3))
        assert hurwitz_number(d, [pair, pair, third]) == 0, a
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    _passed(7, f"brute force matches both closed forms in {elapsed:.3f}s")


def test_criterion_8_counting_oracles():
    for d in range(1, 51):
        assert count_sublattices(d) == sigma(1, d)
    for d in range(1, 31):
        assert count_pointed_isogenies(d) == (d - 1) * sigma(1, d)
    for d in range(1, 21):
        pair = 2 * (d * d - 1)
        assert count_dd2222(d) == 12 * pair * pair + 8 * 6 * pair == 48 * (d**4 - 1)
    _passed(8, "sublattice, pointed-isogeny and degeneration counts exact")


def test_criterion_9_convolutions_and_derivative_identities():
    for d in range(2, 201):
        conv2(d)           # each reads a table whose direct sums equal its closed form
        conv2_weighted(d)
        if d >= 3:
            conv3(d)
    for d in range(2, 61):  # independent in-test recomputation
        assert conv2(d) == sum(sigma(1, i) * sigma(1, d - i) for i in range(1, d))
    e2, e4, e6 = (eisenstein(k, 30) for k in (2, 4, 6))
    assert q_derivative(e2) == F(1, 12) * (e2 * e2 - e4)
    assert q_derivative(e4) == F(1, 3) * (e2 * e4 - e6)
    assert q_derivative(e6) == F(1, 2) * (e2 * e6 - e4 * e4)
    _passed(9, "convolution identities exact to d=200, derivative identities to order 30")
