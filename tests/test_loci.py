"""Locus classes: auxiliary profiles, assembled boundary profiles, solved
classes, triple-branch sums, and certification plumbing."""

import functools
import importlib
import random
import re
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from delliptic import chow, covers, linalg, loci, report
from delliptic.divisors import TABLE_ORDER_CEILING, conv2, conv3, divisors, sigma, sigma_series
from delliptic.errors import CrossCheckError, crosscheck
from delliptic.loci import (
    boundary_profile_m2,
    boundary_profile_m21,
    boundary_profile_m3,
    closed_class,
    coefficient_series,
    delliptic_class_m2,
    delliptic_class_m21,
    delliptic_class_m3,
    family_labels,
    fixed_target_class_m2,
    fixed_target_profile_m2,
    pointed_cover_class_m12,
    product_surfaces_m3,
    total_ramification_profile_m13,
    triple_branch_cancellation,
    triple_branch_chain_sum,
    triple_branch_split_sum,
)
from delliptic.chow import (
    FORGET_M21_TO_M2,
    basis_labels,
    pairing_number,
    pushforward_m21_to_m2,
    solve_class,
    space,
)
from delliptic.quasimodular import NotQuasimodular, QuasimodularFit
from delliptic.series import QSeries

# the package re-exports the function `divisors`, which shadows the module
divisors_module = importlib.import_module("delliptic.divisors")


class TestAuxiliaryLoci:
    def test_pointed_cover_class_vanishes_at_1(self):
        assert not any(pointed_cover_class_m12(1).coefficients)

    def test_pointed_cover_class_small(self):
        cls = pointed_cover_class_m12(2)
        assert cls.coefficient("Delta_0") == F(1, 8)
        assert cls.coefficient("Delta_1") == 3
        cls = pointed_cover_class_m12(3)
        assert cls.coefficient("Delta_0") == F(1, 3)
        assert cls.coefficient("Delta_1") == 8

    def test_pointed_cover_class_is_the_per_d_solve(self):
        # one series solve of the whole table, read at d
        for d in range(1, 65):
            solved = solve_class("M12", 1, loci.pointed_cover_profile_m12(d))
            assert pointed_cover_class_m12(d) == solved

    def test_class_reads_a_longer_profile_table(self, empty_caches):
        # the m12 profile held at q^128 is cut to q^8 for the class table's solve
        loci.pointed_cover_profile_m12(128)
        assert pointed_cover_class_m12(5) == solve_class("M12", 1,
                                                         loci.pointed_cover_profile_m12(5))
        held = loci._profile_table_m12.cache_info()
        assert (held.misses, held.currsize) == (1, 1)

    @staticmethod
    def first_wrong_m12(top):
        """The first d <= top where the per-d M12 solve misses the closed rows."""
        forms = loci.CLOSED_FORMS["pointed_cover_class_m12"]
        closed = {label: sigma_series(row, top) for label, row in forms.items()}
        for d in range(1, top + 1):
            solved = solve_class("M12", 1, loci.pointed_cover_profile_m12(d))
            if solved.coefficients != tuple(closed[label].coefficient(d)
                                            for label in solved.labels):
                return d
        return None

    @pytest.mark.parametrize("site", [
        *((chow.SPACES, "M12", "pairings", (1, 1), i, j) for i in (0, 1) for j in (0, 1)),
        *((loci.CLOSED_FORMS, "pointed_cover_class_m12", label, key)
          for label, row in loci.CLOSED_FORMS["pointed_cover_class_m12"].items() for key in row),
    ], ids=lambda site: "-".join(map(str, site[1:])))
    def test_planted_m12_error_fails_at_its_first_wrong_d(self, plant, site):
        root, *path = site
        plant(root, *path, change=lambda v: v + 1)
        first = self.first_wrong_m12(64)
        assert first is not None
        with pytest.raises(CrossCheckError, match=rf"^pointed_cover_class_m12\(d={first}\): "):
            pointed_cover_class_m12(64)

    def test_total_ramification_profile(self):
        assert all(v == 0 for v in total_ramification_profile_m13(1).values())
        assert total_ramification_profile_m13(2)["Delta_0"] == 6
        profile = total_ramification_profile_m13(3)
        assert profile["Delta_0"] == 16
        assert profile["Delta_1_{1,2,3}"] == 0

    def test_double_pair_profile(self):
        profile = loci.DOUBLE_PAIR_PROFILE_M13
        assert profile["Delta_1_{2,3}"] == 1
        assert profile["Delta_1_{1,2,3}"] == 1
        assert profile["Delta_0"] == 0
        assert profile["Delta_1_{1,2}"] == 0

    def test_auxiliary_profile_labels(self):
        m13 = basis_labels("M13", 1)
        assert tuple(loci.DOUBLE_PAIR_PROFILE_M13) == m13
        for a in (1, 2, 5):
            assert tuple(total_ramification_profile_m13(a)) == m13
            assert tuple(loci.pointed_cover_profile_m12(a)) == basis_labels("M12", 1)

    @pytest.mark.parametrize("d", [1, 4])
    def test_profiles_are_read_only_fractions(self, d):
        profiles = [
            loci.pointed_cover_profile_m12(d),
            total_ramification_profile_m13(d),
            loci.DOUBLE_PAIR_PROFILE_M13,
            boundary_profile_m2(d),
            fixed_target_profile_m2(d),
            boundary_profile_m21(d),
            boundary_profile_m3(d),
            product_surfaces_m3(d),
        ]
        for profile in profiles:
            label = next(iter(profile))
            with pytest.raises(TypeError):
                profile[label] = F(0)
            assert all(type(v) is F for v in profile.values())
        # each family's profile sits on the dual basis of the space it declares
        for family, (space_id, degree, _, profile_fn, *_) in loci.FAMILIES.items():
            pairings = space(space_id).pairings
            (dual_degree,) = {b for b in space(space_id).bases
                              if (degree, b) in pairings or (b, degree) in pairings}
            assert tuple(profile_fn(d)) == basis_labels(space_id, dual_degree), family


class TestGenus2:
    def test_profile_values(self):
        assert boundary_profile_m2(1) == {"Delta_00": 0, "Delta_01": 0}
        assert boundary_profile_m2(2) == {"Delta_00": 12, "Delta_01": 2}
        assert boundary_profile_m2(4) == {"Delta_00": 84, "Delta_01": 34}

    def test_class_small(self):
        assert not any(delliptic_class_m2(1).coefficients)
        assert delliptic_class_m2(2).coefficients == (F(6), F(24))
        assert delliptic_class_m2(3).coefficients == (F(32), F(96))

    def test_winding_sum_identity(self):
        # the chain-cover term collapses to the bridge-cover term
        for d in range(1, 31):
            total = sum(2 * (a * a - 1) * (d // a) for a in divisors(d))
            assert total == 2 * (d - 1) * sigma(1, d)


class TestFixedTarget:
    def test_profile_values(self):
        assert fixed_target_profile_m2(1) == {"Delta_0": 0, "Delta_1": 0}
        assert fixed_target_profile_m2(2) == {"Delta_0": 3, "Delta_1": 2}
        assert fixed_target_profile_m2(3) == {"Delta_0": 8, "Delta_1": 12}

    def test_class_small(self):
        assert not any(fixed_target_class_m2(1).coefficients)
        assert fixed_target_class_m2(2).coefficients == (F(54, 5), F(84, 5))

    def test_class_matches_closed_form_sweep(self):
        for d in range(1, 31):
            fixed_target_class_m2(d)  # raises on any route disagreement

    def test_wrong_isogeny_count_is_caught(self, plant):
        # the profile reads the count directly, so the solved class catches it
        plant(loci.count_pointed_isogenies, change=lambda original: lambda d: original(d) + 1)
        with pytest.raises(CrossCheckError, match=r"class\[m2e\]"):
            fixed_target_class_m2(5)
        result = report.run_verification(10, 20)
        failed = {c["check"] for c in result["checks"] if not c["passed"]}
        # the count's own check fails; certification solves the same classes,
        # so it fails with them
        assert failed == {
            "pointed-isogeny-count", "fixed-target-classes", "genus3-classes",
            "quasimodularity-certification",
        }


class TestPointedGenus2:
    def test_profile_values(self):
        assert boundary_profile_m21(1) == {
            label: 0
            for label in ("Delta_00", "Delta_01a", "Delta_01b", "Xi_1", "Delta_11")
        }
        assert boundary_profile_m21(2) == {
            "Delta_00": 12,
            "Delta_01a": 1,
            "Delta_01b": 1,
            "Xi_1": F(-1, 8),
            "Delta_11": F(-1, 24),
        }

    def test_reducible_entries_agree(self):
        for d in range(1, 31):
            profile = boundary_profile_m21(d)
            assert profile["Delta_01a"] == profile["Delta_01b"]

    def test_class_small(self):
        assert not any(delliptic_class_m21(1).coefficients)
        cls = delliptic_class_m21(2)
        assert cls.coefficient("delta_00") == F(1, 4)
        assert cls.coefficient("delta_01a") == F(-1, 2)
        assert cls.coefficient("delta_01b") == F(7, 2)
        assert cls.coefficient("xi_1") == 6
        assert cls.coefficient("delta_11") == 24

    def test_pushforward_recovers_unpointed(self):
        for d in range(1, 11):
            assert pushforward_m21_to_m2(delliptic_class_m21(d)) == delliptic_class_m2(d)

    def test_wrong_forget_map_fails_the_class_table(self, plant):
        # the pushforward is compared once per m21 class table, whole, and
        # raises at its smallest wrong d what the per-d comparison would
        plant(FORGET_M21_TO_M2, "Xi_1", change=lambda _: "Delta_1")
        assert not any(delliptic_class_m21(1).coefficients)  # the q^1 table: both 0
        pairs = {d: (pushforward_m21_to_m2(closed_class("m21", d)), delliptic_class_m2(d))
                 for d in range(1, 9)}
        k = min(d for d, (pushed, unpointed) in pairs.items() if pushed != unpointed)
        with pytest.raises(CrossCheckError) as per_d:
            crosscheck("pushforward[m21]", k, pushforward=pairs[k][0], unpointed=pairs[k][1])
        with pytest.raises(CrossCheckError) as caught:
            delliptic_class_m21(5)  # the q^8 table
        assert str(caught.value) == str(per_d.value)
        assert str(caught.value) == (
            f"pushforward[m21](d={k}): pushforward, unpointed disagree "
            f"(pushforward {pairs[k][0]}, unpointed {pairs[k][1]})")


class TestSplittingWeights:
    def test_against_four_loop_oracle(self):
        # every (a, m, b, n) >= 1 with a*m + b*n = d; the bounds drop only
        # tuples whose sum already exceeds d. The double-chain weight is
        # conv2 over all of them, the split sum over a != b.
        for d in range(1, 41):
            total = split = 0
            for a in range(1, d):
                for m in range(1, d // a + 1):
                    for b in range(1, d):
                        for n in range(1, d // b + 1):
                            if a * m + b * n == d:
                                total += m * b
                                if a != b:
                                    split += m * b
            assert conv2(d) == total, d
            assert triple_branch_split_sum(d) == split, d

    def test_wrong_splitting_total_is_caught(self, plant):
        # conv2(d) + 1 at every d >= 1, in the table both routes read
        def bumped(original):
            def table(name, n):
                bump = QSeries.from_function(n, lambda d: int(d > 0 and name == "conv2"))
                return original(name, n) + bump
            return table

        plant(divisors_module.convolution_table, change=bumped)
        with pytest.raises(CrossCheckError, match=r"boundary_profile_m21\[Delta_01a\]"):
            boundary_profile_m21(5)
        with pytest.raises(CrossCheckError, match=r"triple_branch_split_sum"):
            triple_branch_split_sum(5)

    def test_wrong_double_pair_entry_is_caught(self, plant):
        plant(loci.DOUBLE_PAIR_PROFILE_M13, "Delta_1_{2,3}", change=lambda v: v + 1)
        with pytest.raises(CrossCheckError, match=r"boundary_profile_m21\[Delta_01a\]"):
            boundary_profile_m21(5)


class TestHoistedConstants:
    """What the per-d class path reads once, per table or per d, still
    follows the tables and stays read-only."""

    def test_changed_bridge_entry_is_caught(self, plant):
        delliptic_class_m21(2)  # warm: the bridge constants are read
        row = basis_labels("M13", 2).index("Delta_01_{1,2}")
        col = basis_labels("M13", 1).index("Delta_0")
        plant(chow.SPACES, "M13", "pairings", (2, 1), row, col, change=lambda v: v + 1)
        with pytest.raises(
            CrossCheckError, match=r"^boundary_profile_m21\[Delta_00\]\(d=2\): "
        ):
            boundary_profile_m21(2)

    def test_registered_rows_are_read_only(self):
        tables = [
            *(entry[4] for entry in loci.FAMILIES.values()),
            *loci.CLOSED_FORMS.values(),
            divisors_module.CLOSED_FORMS,
            covers.CLOSED_FORMS,
        ]
        for table in tables:
            for row in table.values():
                assert isinstance(row, MappingProxyType)
                key = next(iter(row), (0, 1))
                with pytest.raises(TypeError):
                    row[key] = 1
                with pytest.raises(TypeError):
                    del row[key]

    def test_registered_tables_are_read_only(self):
        spaces = chow.SPACES.values()
        tables = [
            chow.SPACES, chow.FORGET_M21_TO_M2, loci.CLOSED_FORMS,
            *loci.CLOSED_FORMS.values(), divisors_module.CLOSED_FORMS, covers.CLOSED_FORMS,
            *(entry[4] for entry in loci.FAMILIES.values()),
            *(sp.bases for sp in spaces), *(sp.pairings for sp in spaces),
            *(sp.q_factors for sp in spaces),
            *(factors for sp in spaces for factors in sp.q_factors.values()),
            *(getattr(loci, name) for name in (
                "_M12_DIVISOR_PULLBACK", "_M2_DUAL_IN_M12", "_M21_DUAL_IN_M13",
                "_SURFACE_X_POINT", "_CURVE_X_MODULI", "_FORGET_CURVE",
            )),
        ]
        for table in tables:
            with pytest.raises(TypeError):
                table[next(iter(table), "key")] = None
        # the one exception: the benchmark's tracer assigns traced functions
        # into FAMILIES, so it stays a plain dict until the tracer stops
        assert type(loci.FAMILIES) is dict

    def test_one_factorisation_per_class_system(self, plant):
        # M12 (the two-marked cover), M2 degree 1 (the pushforward's target)
        # and M21 degree 2: one System each for the whole sweep
        sizes = []

        def counted(original):
            class Counted(original):
                def __init__(self, rows):
                    super().__init__(rows)
                    sizes.append(len(self))
            return Counted

        plant(linalg.System, change=counted)
        for d in range(1, 41):
            delliptic_class_m21(d)
        assert sorted(sizes) == [2, 2, 5]


class TestGenus3:
    def test_contribution_examples(self):
        for d in (2, 3, 5, 8):
            surfaces = product_surfaces_m3(d)
            # Delta_[1] collects only its D1_D13 term: Delta_00 pairs to 0
            # with Delta_01a, and the forget map contracts it
            assert surfaces["Delta_[1]"] == 96 * (d - 1) * sigma(1, d)
            assert surfaces["Delta_[6]"] == 0
        for d in (3, 4, 6):
            # independent triple-sum oracle
            triple = sum(
                sigma(1, a) * sigma(1, b) * sigma(1, d - a - b)
                for a in range(1, d)
                for b in range(1, d - a)
            )
            assert triple == conv3(d)
            # the D1_D12 term of Delta_[11]a, Delta_11 forgetting to Delta_1,
            # is what is left of the total after its D1_D13 and D11_D14 terms
            others = 24 * boundary_profile_m21(d)["Delta_11"] + 24 * conv2(d) * pairing_number(
                "M21", "Delta_11", 2, "Delta_01a", 2)
            assert product_surfaces_m3(d)["Delta_[11]a"] - others == 24 * triple

    def test_profile_values(self):
        assert all(v == 0 for v in boundary_profile_m3(1).values())
        profile = boundary_profile_m3(2)
        assert profile["Delta_[1]"] == 288
        assert profile["Delta_[4]"] == 24 * (2 * 9 - 3) - 288 == 72

    def test_class_small(self):
        assert not any(delliptic_class_m3(1).coefficients)
        cls = delliptic_class_m3(2)
        assert cls.coefficient("kappa_2") == -108
        assert cls.coefficient("lambda^2") == (
            (-25056 + 13560 - 960) * 3 + (11184 - 5400) * 9 + 252 * 33
        )

    def test_one_table_per_family(self, empty_caches, plant):
        tables = {"m2": loci._profile_table_m2, "m21": loci._profile_table_m21,
                  "m3": loci._profile_table_m3, "conv2": divisors_module._products,
                  "m12": loci._class_table_m12, "triple": loci._triple_branch_table}

        def info(field):
            return {name: getattr(table.cache_info(), field) for name, table in tables.items()}

        calls = dict.fromkeys(loci.FAMILIES, 0)

        def counted(families):
            def count(family, solve):
                def read(d):
                    calls[family] += 1
                    return solve(d)
                return read
            return {family: (space_id, degree, count(family, solve), *rest)
                    for family, (space_id, degree, solve, *rest) in families.items()}

        # one class sweep per family, which reads its profile and its closed
        # rows at the top order first: each table is built once, at q^64
        plant(loci.FAMILIES, change=counted)
        loci.certify_quasimodularity(60)
        assert info("misses") == {**dict.fromkeys(tables, 1), "triple": 0}
        assert calls == dict.fromkeys(loci.FAMILIES, 60)
        closed = loci._closed_class_table.cache_info()
        assert (closed.misses, closed.currsize) == (len(loci.FAMILIES), len(loci.FAMILIES))
        for cache in empty_caches:
            cache.cache_clear()
        # an ascending sweep grows each table at n = 1, 2, 4, ..., 128 and
        # holds the last; the m3 table is not read
        for d in range(1, 101):
            delliptic_class_m21(d)
            triple_branch_chain_sum(d)
            triple_branch_split_sum(d)
        assert info("currsize") == {**dict.fromkeys(tables, 1), "m3": 0}
        built = info("misses")
        assert built == {**dict.fromkeys(tables, 8), "m3": 0}
        triple_branch_cancellation(100)  # the q^128 table, truncated
        for d in range(1, 129):
            delliptic_class_m21(d)
            boundary_profile_m2(d)
            triple_branch_split_sum(d)
        assert info("misses") == built
        # the m3 table to q^4 reads the larger held tables, truncated
        assert delliptic_class_m3(3) == closed_class("m3", 3)
        assert info("misses") == {**built, "m3": 1}
        # a build that raises keeps the held table: the conv2 row read as a
        # series is wrong at q^150 only
        plant(divisors_module.sigma_series, change=lambda original: lambda row, n: (
            original(row, n) + QSeries.from_function(n, lambda d: int(d == 150))))
        conv2(100)
        with pytest.raises(CrossCheckError, match=r"^conv2\(d=150\): "):
            conv2(150)
        built = info("misses")
        assert conv2(128) == sum(sigma(1, k) * sigma(1, 128 - k) for k in range(1, 128))
        assert info("misses") == built

    def test_table_order_stops_at_the_ceiling(self):
        # every d up to the ceiling reads the one table at TABLE_ORDER_CEILING,
        # whose tail reads count_pointed_isogenies to the same order
        for d in (1000, 1002, TABLE_ORDER_CEILING):
            assert delliptic_class_m3(d) == closed_class("m3", d)
        with pytest.raises(ValueError, match="^d = 1025 exceeds the table order ceiling 1024$"):
            delliptic_class_m3(TABLE_ORDER_CEILING + 1)

    def test_squared_curve_identity(self):
        for d in range(1, 31):
            total = sum(48 * (a**4 - 1) * (d // a) for a in divisors(d))
            assert total == 48 * (d * sigma(3, d) - sigma(1, d))


class TestIntegerRoutes:
    """The series routes against the Fraction sums they replace, written out
    term by term."""

    @staticmethod
    def fraction_contribution(d, cover_type, surface_label):
        if surface_label in loci._SURFACE_X_POINT:
            m21_label, is_surface = loci._SURFACE_X_POINT[surface_label], True
        else:
            m21_label, is_surface = loci._CURVE_X_MODULI[surface_label], False
        c2 = conv2(d) if d >= 2 else 0
        if cover_type == "D1_D13":
            return 24 * boundary_profile_m21(d)[m21_label] if is_surface else F(0)
        if cover_type == "D11_D14":
            if is_surface:
                return 24 * c2 * pairing_number("M21", m21_label, 2, "Delta_01a", 2)
            return 24 * c2 * pairing_number("M21", "Delta_1", 1, m21_label, 3)
        forget, profile = (
            (FORGET_M21_TO_M2, loci.fixed_target_profile_m2) if is_surface
            else (loci._FORGET_CURVE, loci.boundary_profile_m2)
        )
        total = F(0)
        if forget[m21_label] is not None:
            for d1 in range(1, d):
                total += sigma(1, d - d1) * profile(d1)[forget[m21_label]]
        return 12 * total

    def assert_contributions_match(self, max_d, surfaces):
        for d in range(1, max_d + 1):
            for surface, value in surfaces(d).items():
                terms = [self.fraction_contribution(d, cover_type, surface)
                         for cover_type in ("D1_D12", "D1_D13", "D11_D14")]
                assert isinstance(value, F)
                assert value == sum(terms)

    def test_surface_contributions(self):
        self.assert_contributions_match(80, product_surfaces_m3)

    def test_surface_contributions_over_mixed_denominators(self, plant):
        # the real genus-2 profiles are integral; rational ones, planted
        # where the m3 table reads them, exercise the common denominators
        # (unchecked: the planted values fail the closed forms)
        def rational(d):
            return F(d % 5, d + 1) if d else 0

        plant(loci.count_pointed_isogenies,
              change=lambda original: lambda d: original(d) + rational(d))
        plant(loci._profile_table_m2, change=lambda original: lambda n: {
            label: s + QSeries.from_function(n, rational) for label, s in original(n).items()
        })
        series = loci._surface_series(30)
        self.assert_contributions_match(
            30, lambda d: {label: s.coefficient(d) for label, s in series.items()})

    @staticmethod
    def fraction_windings(d, label):
        total = F(0)
        for a in divisors(d):
            total += (d // a) * loci.total_ramification_profile_m13(a)[label]
        return total

    def test_chain_windings(self, plant):
        labels = basis_labels("M13", 1)
        windings = {label: loci._m13_windings(80, label) for label in labels}
        assert all(windings[label].coefficient(0) == 0 for label in labels)
        for d in range(1, 81):
            assert all(windings[label].coefficient(d) == self.fraction_windings(d, label)
                       for label in labels)
        # rational entries with a different denominator per winding
        plant(loci._profile_table_m13, change=lambda original: lambda n: {
            label: QSeries.from_function(n, lambda a: F(a * i - 3, a + i) if a else 0)
            for i, label in enumerate(labels)
        })
        windings = {label: loci._m13_windings(60, label) for label in labels}
        for d in (1, 12, 30, 60):
            assert all(windings[label].coefficient(d) == self.fraction_windings(d, label)
                       for label in labels)

    @pytest.mark.parametrize(("profile", "label", "check"), [
        ("fixed_target_profile_m2", "Delta_0", "boundary_profile_m3[Delta_[8]]"),
        ("boundary_profile_m2", "Delta_00", "boundary_profile_m3[Delta_[5]]"),
        ("boundary_profile_m2", "Delta_01", "boundary_profile_m3[Delta_[11]]"),
    ])
    def test_planted_d1_d12_input_fails_its_first_reader(self, plant, profile, label, check):
        # the m3 table reads the m2e isogeny count and the m2 profile as
        # series; either way a wrong value at d1 = 6 first fails at d = 7.
        # (The m2e Delta_1 input is the conv2 table, whose bump
        # TestSplittingWeights catches.)
        planted_at = 6

        def at(d):
            return F(1, 7) if d == planted_at else 0

        if profile == "fixed_target_profile_m2":
            plant(loci.count_pointed_isogenies,
                  change=lambda original: lambda d: original(d) + at(d))
        else:
            def planted(original):
                def read(n):
                    values = dict(original(n))
                    values[label] += QSeries.from_function(n, at)
                    return values
                return read

            plant(loci._profile_table_m2, change=planted)
        for d in range(1, 5):
            boundary_profile_m3(d)  # tables to q^4 read the profile only below 4
        with pytest.raises(
            CrossCheckError, match=rf"^{re.escape(check)}\(d={planted_at + 1}\): "
        ):
            boundary_profile_m3(planted_at + 1)


class TestTripleBranchSums:
    def test_chain_sum_examples(self):
        assert triple_branch_chain_sum(1) == 0
        assert triple_branch_chain_sum(4) == 1
        assert triple_branch_chain_sum(6) == F(2, 3) + F(10, 3) == 4

    def test_split_sum_examples(self):
        assert triple_branch_split_sum(2) == 0
        assert triple_branch_split_sum(3) == 3

    def test_divisor_count_terms_cancel(self):
        for d in range(1, 41):
            total = triple_branch_chain_sum(d) + triple_branch_split_sum(d)
            conv = sum(sigma(1, d1) * sigma(1, d - d1) for d1 in range(1, d))
            assert total == conv + (F(1, 3) - F(d, 3)) * sigma(1, d)

    def test_cancellation_fits(self):
        chain_fit, split_fit, sum_fit = triple_branch_cancellation(30)
        assert chain_fit == NotQuasimodular(6, 30)
        assert split_fit == NotQuasimodular(6, 30)
        assert isinstance(sum_fit, QuasimodularFit)

    def test_order_below_basis_size_rejected(self):
        with pytest.raises(ValueError):
            triple_branch_cancellation(6)


class TestCertificationPlumbing:
    def test_family_labels(self):
        assert family_labels("m2") == ("delta_0", "delta_1")
        assert family_labels("m21") == (
            "delta_00",
            "delta_01a",
            "delta_01b",
            "xi_1",
            "delta_11",
        )
        with pytest.raises(ValueError):
            family_labels("m7")

    def test_coefficient_series_values(self):
        series = coefficient_series("m2", "delta_0", 6)
        expected = [0] + [2 * sigma(3, d) - 2 * d * sigma(1, d) for d in range(1, 7)]
        assert list(series.coefficients) == expected
        assert expected[:4] == [0, 0, 6, 32]

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            coefficient_series("m2", "delta_7", 10)

    @pytest.mark.parametrize("read", [
        loci.family_labels,
        functools.partial(loci.class_in_family, d=3),
        functools.partial(loci.class_series, order=3),
        functools.partial(coefficient_series, label="delta_0", order=3),
        functools.partial(closed_class, d=3),
    ], ids=["family_labels", "class_in_family", "class_series", "coefficient_series",
            "closed_class"])
    def test_unknown_family_refused(self, read):
        with pytest.raises(ValueError, match=r"^unknown class family 'm9'$"):
            read("m9")

    def test_class_series_is_every_coefficient_series(self):
        for family in loci.FAMILIES:
            series = loci.class_series(family, 60)
            assert tuple(series) == family_labels(family)
            for label, value in series.items():
                assert value == coefficient_series(family, label, 60)
                assert value.coefficient(60) == loci.class_in_family(family, 60).coefficient(label)

    @pytest.mark.parametrize("family", sorted(loci.FAMILIES))
    def test_planted_class_row_fails_at_its_first_wrong_d(self, plant, family):
        # d sigma_1(d) - sigma_3(d) added to one row: 0 at d = 1 only
        label = family_labels(family)[0]
        plant(loci.FAMILIES, family, 4, label, change=lambda row: {
            **row, (1, 1): row.get((1, 1), 0) + 1, (0, 3): row.get((0, 3), 0) - 1})
        first = next(d for d in range(1, 11) if d * sigma(1, d) != sigma(3, d))
        with pytest.raises(CrossCheckError, match=rf"^class\[{family}\]\(d={first}\): "):
            loci.class_series(family, 10)

    @pytest.mark.parametrize("family", sorted(loci.FAMILIES))
    def test_planted_rows_fail_at_the_first_wrong_d_of_any_label(self, plant, family):
        # the first label's row is wrong from d = 3 on (d sigma_1 - sigma_3
        # - 3 sigma_1 + 3 d sigma_0 vanishes at d = 1, 2), the last label's
        # from d = 2 on (d sigma_1 - sigma_3): the check names d = 2 and both
        # whole classes there, as a sweep over d would
        labels = family_labels(family)
        true, true_at_3 = closed_class(family, 2), closed_class(family, 3)

        def plus(extra):
            return lambda row: {key: row.get(key, 0) + extra.get(key, 0) for key in {*row, *extra}}

        plant(loci.FAMILIES, family, 4, labels[0],
              change=plus({(1, 1): 1, (0, 3): -1, (0, 1): -3, (1, 0): 3}))
        plant(loci.FAMILIES, family, 4, labels[-1], change=plus({(1, 1): 1, (0, 3): -1}))
        wrong = closed_class(family, 2)
        assert wrong.coefficients == (*true.coefficients[:-1], true.coefficients[-1] - 3)
        assert closed_class(family, 3).coefficients[0] == true_at_3.coefficients[0] - 10
        with pytest.raises(CrossCheckError) as caught:
            loci.class_series(family, 10)
        assert str(caught.value) == (
            f"class[{family}](d=2): solver, closed disagree (solver {true}, closed {wrong})")

    def test_class_tables_are_the_per_d_solve(self):
        # the tables' series solve, read at d, against one solve of each
        # profile; 513 and the ceiling read the widest packed columns
        for family in ("m2", "m21", "m3"):
            space_id, degree, class_fn, profile_fn, *_ = loci.FAMILIES[family]
            for d in (1, 2, 7, 30, 64, 65, 100, 513, TABLE_ORDER_CEILING):
                solved = chow.to_q_class_basis(solve_class(space_id, degree, profile_fn(d)))
                assert class_fn(d) == solved, (family, d)

    def test_one_class_table_per_profile_table(self, empty_caches, plant):
        # classes of m2, m21 and m3 are read off their tables: the only per-d
        # solve left is m2e's, whose profile has no table
        solved = []

        def counted(original):
            def solve(space_id, degree, profile):
                solved.append((space_id, degree))
                return original(space_id, degree, profile)
            return solve

        plant(chow.solve_class, change=counted)
        loci.certify_quasimodularity(60)
        assert loci._class_table.cache_info().misses == 3
        assert solved == [loci.FAMILIES["m2e"][:2]] * 60
        # a shuffled sweep builds a class table only when its profile table
        # grows: m21's own and the m2 one its pushforward check reads
        for cache in empty_caches:
            cache.cache_clear()
        ds = list(range(1, 121))
        random.Random(89).shuffle(ds)  # 6, 25, 77 first grow the tables: q^8, 32, 128
        for d in ds:
            delliptic_class_m21(d)
        profiles = (loci._profile_table_m2.cache_info().misses
                    + loci._profile_table_m21.cache_info().misses)
        assert profiles == 6
        assert loci._class_table.cache_info().misses == profiles
        assert loci._class_table.cache_info().currsize == 2
        assert solved == [loci.FAMILIES["m2e"][:2]] * 60

    @pytest.mark.parametrize("read,message", [
        (lambda: coefficient_series("m2", "delta_0", -1), "order must be >= 0, got -1"),
        (lambda: loci.class_series("m3", -1), "order must be >= 0, got -1"),
        (lambda: sigma_series(covers.CLOSED_FORMS["count_pointed_isogenies"], -2),
         "order must be >= 0, got -2"),
        (lambda: triple_branch_cancellation(0), "order must be >= 1, got 0"),
    ], ids=["coefficient_series", "class_series", "sigma_series", "triple_branch_cancellation"])
    def test_bad_order_refused_before_any_work(self, empty_caches, read, message):
        before = [cache.cache_info() for cache in empty_caches]
        with pytest.raises(ValueError, match=f"^{message}$"):
            read()
        assert [cache.cache_info() for cache in empty_caches] == before



ABOVE = TABLE_ORDER_CEILING + 1

#: every public reader of a table, with the name its refusal gives the value
TABLE_READERS = {
    "conv2": ("d", conv2),
    "conv2_weighted": ("d", divisors_module.conv2_weighted),
    "conv3": ("d", conv3),
    "convolution_table": ("order", functools.partial(divisors_module.convolution_table, "conv2")),
    "sigma_series": ("order", functools.partial(
        sigma_series, covers.CLOSED_FORMS["count_pointed_isogenies"])),
    "pointed_cover_profile_m12": ("d", loci.pointed_cover_profile_m12),
    "pointed_cover_class_m12": ("d", pointed_cover_class_m12),
    "count_sublattices": ("d", covers.count_sublattices),
    "count_pointed_isogenies": ("d", covers.count_pointed_isogenies),
    "boundary_profile_m2": ("d", boundary_profile_m2),
    "fixed_target_profile_m2": ("d", fixed_target_profile_m2),
    "boundary_profile_m21": ("d", boundary_profile_m21),
    "boundary_profile_m3": ("d", boundary_profile_m3),
    "product_surfaces_m3": ("d", product_surfaces_m3),
    "total_ramification_profile_m13": ("a", total_ramification_profile_m13),
    "delliptic_class_m2": ("d", delliptic_class_m2),
    "fixed_target_class_m2": ("d", fixed_target_class_m2),
    "delliptic_class_m21": ("d", delliptic_class_m21),
    "delliptic_class_m3": ("d", delliptic_class_m3),
    **{f"class_in_family[{family}]": ("d", functools.partial(loci.class_in_family, family))
       for family in loci.FAMILIES},
    "closed_class": ("d", functools.partial(closed_class, "m3")),
    "class_series": ("order", functools.partial(loci.class_series, "m3")),
    "triple_branch_chain_sum": ("d", triple_branch_chain_sum),
    "triple_branch_split_sum": ("d", triple_branch_split_sum),
    "triple_branch_cancellation": ("order", triple_branch_cancellation),
    "coefficient_series": ("order", functools.partial(coefficient_series, "m3", "kappa_2")),
    "certify_quasimodularity": ("order", loci.certify_quasimodularity),
    "run_verification[max_d]": ("max_d", lambda n: report.run_verification(max_d=n, order=30)),
    "run_verification[order]": ("order", lambda n: report.run_verification(max_d=30, order=n)),
}

#: every table reader and the closed-form counts, which read no table: each
#: refuses a d or order that is not an integer
INTEGER_READERS = {
    **TABLE_READERS,
    "count_dd3": ("d", covers.count_dd3),
    "count_dd22": ("d", covers.count_dd22),
    "count_dd2222": ("d", covers.count_dd2222),
}


class TestTableOrderCeiling:
    @pytest.mark.parametrize("reader", TABLE_READERS)
    def test_refused_above_the_ceiling_before_any_work(self, empty_caches, reader):
        name, read = TABLE_READERS[reader]
        message = rf"^{name} = {ABOVE} exceeds the table order ceiling {TABLE_ORDER_CEILING}$"
        with pytest.raises(ValueError, match=message):
            read(ABOVE)
        assert [cache for cache in empty_caches if cache.cache_info().currsize] == []

    @pytest.mark.parametrize("reader", INTEGER_READERS)
    def test_non_integer_refused_before_any_work(self, empty_caches, reader):
        # nothing read or held; an lru_cache counts its miss before its function refuses
        name, read = INTEGER_READERS[reader]
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got 3\.5$"):
            read(3.5)
        infos = [cache.cache_info() for cache in empty_caches]
        assert [info for info in infos if info.hits or info.currsize] == []

    def test_ceiling_is_the_largest_table_order(self):
        assert TABLE_ORDER_CEILING & (TABLE_ORDER_CEILING - 1) == 0
        assert divisors_module.table_order(TABLE_ORDER_CEILING) == TABLE_ORDER_CEILING
