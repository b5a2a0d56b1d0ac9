"""Locus classes: auxiliary profiles, assembled boundary profiles, solved
classes, triple-branch sums, and certification plumbing."""

import importlib
import re
from fractions import Fraction as F

import pytest

from delliptic import chow, covers, linalg, loci, report
from delliptic.divisors import Row, conv2, conv3, divisors, sigma
from delliptic.errors import CrossCheckError
from delliptic.loci import (
    boundary_profile_m2,
    boundary_profile_m21,
    boundary_profile_m3,
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
    space,
)
from delliptic.quasimodular import NotQuasimodular, QuasimodularFit

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
        for family, (space_id, degree, _, profile_fn, _) in loci.FAMILIES.items():
            dual_degree = space(space_id).dimension - degree
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


class TestSplittingWeights:
    def test_against_four_loop_oracle(self):
        # every (a, m, b, n) >= 1 with a*m + b*n = d; the bounds drop only
        # tuples whose sum already exceeds d
        for d in range(1, 41):
            total = diagonal = 0
            for a in range(1, d):
                for m in range(1, d // a + 1):
                    for b in range(1, d):
                        for n in range(1, d // b + 1):
                            if a * m + b * n == d:
                                total += m * b
                                if a == b:
                                    diagonal += m * b
            assert loci._splitting_weights(d) == (total, diagonal)

    def test_against_triple_loop(self):
        # the walk over (a, m, b) with b | d - a*m that the strided dots replace
        for d in range(1, 151):
            total = diagonal = 0
            for a in range(1, d):
                for m in range(1, (d - 1) // a + 1):
                    for b in divisors(d - a * m):
                        total += m * b
                        if b == a:
                            diagonal += m * b
            assert loci._splitting_weights(d) == (total, diagonal), d

    def test_total_is_conv2(self):
        for d in range(2, 201):
            assert loci._splitting_weights(d)[0] == conv2(d)

    def test_wrong_splitting_total_is_caught(self, plant):
        plant(loci._splitting_weights,
              change=lambda original: lambda d: (original(d)[0] + 1, original(d)[1]))
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
                assert isinstance(row, Row)
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
        # and M21 degree 2: one factorisation each for the whole sweep
        calls = []

        def counted(original):
            def factorisation(matrix):
                calls.append(len(matrix))
                return original(matrix)
            return factorisation

        plant(linalg._scaled_factorisation, change=counted)
        for d in range(1, 41):
            delliptic_class_m21(d)
        assert sorted(calls) == [2, 2, 5]


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
            # the D1_D12 term of Delta_[11]a: Delta_11 forgets to Delta_1
            assert loci._tail_cover_sum(d, fixed_target_profile_m2, "Delta_1") == 24 * triple

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

    def test_squared_curve_identity(self):
        for d in range(1, 31):
            total = sum(48 * (a**4 - 1) * (d // a) for a in divisors(d))
            assert total == 48 * (d * sigma(3, d) - sigma(1, d))


class TestIntegerRoutes:
    """The int multiply-adds of the routes against the Fraction sums they
    replace, written out term by term."""

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

    def assert_contributions_match(self, max_d):
        for d in range(1, max_d + 1):
            for surface, value in product_surfaces_m3(d).items():
                terms = {cover_type: self.fraction_contribution(d, cover_type, surface)
                         for cover_type in ("D1_D12", "D1_D13", "D11_D14")}
                assert isinstance(value, F)
                assert value == sum(terms.values())
                if surface in loci._SURFACE_X_POINT:
                    profile = loci.fixed_target_profile_m2
                    target = FORGET_M21_TO_M2[loci._SURFACE_X_POINT[surface]]
                else:
                    profile = loci.boundary_profile_m2
                    target = loci._FORGET_CURVE[loci._CURVE_X_MODULI[surface]]
                split = loci._tail_cover_sum(d, profile, target)
                assert isinstance(split, F)
                assert split == terms["D1_D12"]

    def test_surface_contributions(self):
        self.assert_contributions_match(80)

    def test_surface_contributions_over_mixed_denominators(self, monkeypatch):
        # the real genus-2 profiles are integral; rational ones exercise the
        # common denominator
        for name in ("fixed_target_profile_m2", "boundary_profile_m2"):
            original = getattr(loci, name)
            monkeypatch.setattr(loci, name, lambda d, original=original: {
                label: v + F(d % 5, d + 1) for label, v in original(d).items()
            })
        self.assert_contributions_match(30)

    @staticmethod
    def fraction_windings(d, label):
        total = F(0)
        for a in divisors(d):
            total += (d // a) * loci.total_ramification_profile_m13(a)[label]
        return total

    def test_chain_windings(self, plant):
        labels = basis_labels("M13", 1)
        for d in range(1, 81):
            windings = loci._chain_windings(d)
            assert tuple(windings) == labels
            assert all(windings[label] == self.fraction_windings(d, label) for label in labels)
        # rational entries with a different denominator per winding
        plant(loci.total_ramification_profile_m13, change=lambda original: lambda a: {
            label: F(a * i - 3, a + i) for i, label in enumerate(labels)
        })
        for d in (1, 12, 30, 60):
            windings = loci._chain_windings(d)
            assert all(windings[label] == self.fraction_windings(d, label) for label in labels)

    @pytest.mark.parametrize(("profile", "label", "check"), [
        ("fixed_target_profile_m2", "Delta_0", "boundary_profile_m3[Delta_[8]]"),
        ("fixed_target_profile_m2", "Delta_1", "boundary_profile_m3[Delta_[11]]"),
        ("boundary_profile_m2", "Delta_00", "boundary_profile_m3[Delta_[5]]"),
        ("boundary_profile_m2", "Delta_01", "boundary_profile_m3[Delta_[11]]"),
    ])
    def test_planted_d1_d12_input_fails_its_first_reader(self, plant, profile, label, check):
        planted_at = 6

        def planted(original):
            def profile_at(d):
                values = dict(original(d))
                values[label] += F(1, 7) if d == planted_at else 0
                return values
            return profile_at

        plant(getattr(loci, profile), change=planted)
        for d in range(1, planted_at + 1):
            boundary_profile_m3(d)  # reads the profile only below d
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

    def test_split_sum_against_brute_force(self):
        for d in range(1, 26):
            expected = 0
            for a in range(1, d + 1):
                for b in range(1, d + 1):
                    if a == b:
                        continue
                    for m in range(1, d + 1):
                        for n in range(1, d + 1):
                            if a * m + b * n == d:
                                expected += m * b
            assert triple_branch_split_sum(d) == expected

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
