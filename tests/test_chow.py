"""Registry transcription, pairing, solving, basis conversion, pushforward."""

import random
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from delliptic import chow
from delliptic.chow import (
    ChowClass,
    basis_labels,
    pairing,
    pairing_number,
    pushforward_m21_to_m2,
    q_basis_labels,
    solve_class,
    to_q_class_basis,
)
from delliptic.linalg import InconsistentSystemError, SingularSystemError

# Reference intersection tables, transcribed independently of the registry.
# Keys are (row label, row degree, column label, column degree).
REFERENCE_TABLES = {
    "M12": [
        ("Delta_0", 1, "Delta_0", 1, F(0)),
        ("Delta_0", 1, "Delta_1", 1, F(1)),
        ("Delta_1", 1, "Delta_1", 1, F(-1, 24)),
    ],
    "M13": [
        ("Delta_01_{1,2}", 2, "Delta_0", 1, F(0)),
        ("Delta_01_{1,2}", 2, "Delta_1_{1,2,3}", 1, F(1)),
        ("Delta_01_{1,2}", 2, "Delta_1_{2,3}", 1, F(0)),
        ("Delta_01_{1,2}", 2, "Delta_1_{1,3}", 1, F(0)),
        ("Delta_01_{1,2}", 2, "Delta_1_{1,2}", 1, F(-1)),
        ("Delta_01_{1,3}", 2, "Delta_0", 1, F(0)),
        ("Delta_01_{1,3}", 2, "Delta_1_{1,2,3}", 1, F(1)),
        ("Delta_01_{1,3}", 2, "Delta_1_{2,3}", 1, F(0)),
        ("Delta_01_{1,3}", 2, "Delta_1_{1,3}", 1, F(-1)),
        ("Delta_01_{1,3}", 2, "Delta_1_{1,2}", 1, F(0)),
        ("Delta_11_{1,2}", 2, "Delta_0", 1, F(1)),
        ("Delta_11_{1,2}", 2, "Delta_1_{1,2,3}", 1, F(-1, 24)),
        ("Delta_11_{1,2}", 2, "Delta_1_{2,3}", 1, F(0)),
        ("Delta_11_{1,2}", 2, "Delta_1_{1,3}", 1, F(0)),
        ("Delta_11_{1,2}", 2, "Delta_1_{1,2}", 1, F(0)),
        ("Delta_11_{1,3}", 2, "Delta_0", 1, F(1)),
        ("Delta_11_{1,3}", 2, "Delta_1_{1,2,3}", 1, F(-1, 24)),
        ("Delta_11_{1,3}", 2, "Delta_1_{2,3}", 1, F(0)),
        ("Delta_11_{1,3}", 2, "Delta_1_{1,3}", 1, F(0)),
        ("Delta_11_{1,3}", 2, "Delta_1_{1,2}", 1, F(0)),
    ],
    "M2": [
        ("Delta_00", 2, "Delta_0", 1, F(-4)),
        ("Delta_00", 2, "Delta_1", 1, F(2)),
        ("Delta_01", 2, "Delta_0", 1, F(1)),
        ("Delta_01", 2, "Delta_1", 1, F(-1, 12)),
    ],
    "M21": [
        ("Delta_00", 2, "Delta_00", 2, F(0)),
        ("Delta_00", 2, "Delta_01a", 2, F(0)),
        ("Delta_00", 2, "Delta_01b", 2, F(0)),
        ("Delta_00", 2, "Xi_1", 2, F(-4)),
        ("Delta_00", 2, "Delta_11", 2, F(2)),
        ("Delta_01a", 2, "Delta_01a", 2, F(1)),
        ("Delta_01a", 2, "Delta_01b", 2, F(-1)),
        ("Delta_01a", 2, "Xi_1", 2, F(1)),
        ("Delta_01a", 2, "Delta_11", 2, F(0)),
        ("Delta_01b", 2, "Delta_01b", 2, F(1)),
        ("Delta_01b", 2, "Xi_1", 2, F(0)),
        ("Delta_01b", 2, "Delta_11", 2, F(-1, 12)),
        ("Xi_1", 2, "Xi_1", 2, F(1, 12)),
        ("Xi_1", 2, "Delta_11", 2, F(0)),
        ("Delta_11", 2, "Delta_11", 2, F(1, 288)),
        ("Delta_1", 1, "Gamma_(5)", 3, F(1)),
        ("Delta_1", 1, "Gamma_(6)", 3, F(0)),
        ("Delta_1", 1, "Gamma_(11)", 3, F(-1, 24)),
    ],
    "M3": [
        ("Delta_[1]", 4, "lambda^2", 2, F(0)),
        ("Delta_[1]", 4, "lambda*delta_0", 2, F(0)),
        ("Delta_[1]", 4, "lambda*delta_1", 2, F(0)),
        ("Delta_[1]", 4, "delta_0^2", 2, F(0)),
        ("Delta_[1]", 4, "delta_0*delta_1", 2, F(4)),
        ("Delta_[1]", 4, "delta_1^2", 2, F(-3)),
        ("Delta_[1]", 4, "kappa_2", 2, F(1)),
        ("Delta_[4]", 4, "lambda^2", 2, F(0)),
        ("Delta_[4]", 4, "lambda*delta_0", 2, F(0)),
        ("Delta_[4]", 4, "lambda*delta_1", 2, F(0)),
        ("Delta_[4]", 4, "delta_0^2", 2, F(8)),
        ("Delta_[4]", 4, "delta_0*delta_1", 2, F(-4)),
        ("Delta_[4]", 4, "delta_1^2", 2, F(2)),
        ("Delta_[4]", 4, "kappa_2", 2, F(0)),
        ("Delta_[5]", 4, "lambda^2", 2, F(0)),
        ("Delta_[5]", 4, "lambda*delta_0", 2, F(-1, 12)),
        ("Delta_[5]", 4, "lambda*delta_1", 2, F(1, 24)),
        ("Delta_[5]", 4, "delta_0^2", 2, F(-2)),
        ("Delta_[5]", 4, "delta_0*delta_1", 2, F(7, 12)),
        ("Delta_[5]", 4, "delta_1^2", 2, F(-1, 12)),
        ("Delta_[5]", 4, "kappa_2", 2, F(0)),
        ("Delta_[6]", 4, "lambda^2", 2, F(0)),
        ("Delta_[6]", 4, "lambda*delta_0", 2, F(0)),
        ("Delta_[6]", 4, "lambda*delta_1", 2, F(-1, 24)),
        ("Delta_[6]", 4, "delta_0^2", 2, F(0)),
        ("Delta_[6]", 4, "delta_0*delta_1", 2, F(-1, 2)),
        ("Delta_[6]", 4, "delta_1^2", 2, F(1, 12)),
        ("Delta_[6]", 4, "kappa_2", 2, F(0)),
        ("Delta_[8]", 4, "lambda^2", 2, F(0)),
        ("Delta_[8]", 4, "lambda*delta_0", 2, F(-1, 12)),
        ("Delta_[8]", 4, "lambda*delta_1", 2, F(1, 24)),
        ("Delta_[8]", 4, "delta_0^2", 2, F(-11, 6)),
        ("Delta_[8]", 4, "delta_0*delta_1", 2, F(1, 2)),
        ("Delta_[8]", 4, "delta_1^2", 2, F(-1, 24)),
        ("Delta_[8]", 4, "kappa_2", 2, F(1, 24)),
        ("Delta_[10]", 4, "lambda^2", 2, F(0)),
        ("Delta_[10]", 4, "lambda*delta_0", 2, F(0)),
        ("Delta_[10]", 4, "lambda*delta_1", 2, F(-1, 24)),
        ("Delta_[10]", 4, "delta_0^2", 2, F(0)),
        ("Delta_[10]", 4, "delta_0*delta_1", 2, F(-1, 2)),
        ("Delta_[10]", 4, "delta_1^2", 2, F(1, 8)),
        ("Delta_[10]", 4, "kappa_2", 2, F(1, 24)),
        ("Delta_[11]", 4, "lambda^2", 2, F(1, 288)),
        ("Delta_[11]", 4, "lambda*delta_0", 2, F(1, 24)),
        ("Delta_[11]", 4, "lambda*delta_1", 2, F(-1, 288)),
        ("Delta_[11]", 4, "delta_0^2", 2, F(1, 2)),
        ("Delta_[11]", 4, "delta_0*delta_1", 2, F(-1, 24)),
        ("Delta_[11]", 4, "delta_1^2", 2, F(1, 288)),
        ("Delta_[11]", 4, "kappa_2", 2, F(0)),
    ],
}


class TestTranscription:
    @pytest.mark.parametrize("space_id", sorted(REFERENCE_TABLES))
    def test_tables_match_reference(self, space_id):
        for row, deg_row, col, deg_col, value in REFERENCE_TABLES[space_id]:
            assert pairing_number(space_id, row, deg_row, col, deg_col) == value, (
                space_id,
                row,
                col,
            )
            # bilinear pairing agrees in both argument orders
            a = ChowClass.from_coefficients(space_id, deg_row, {row: 1})
            b = ChowClass.from_coefficients(space_id, deg_col, {col: 1})
            assert pairing(a, b) == value
            assert pairing(b, a) == value

    def test_reference_covers_whole_registry(self):
        # every registered entry is pinned: count entries per space
        expected = {"M12": 3, "M13": 20, "M2": 4, "M21": 18, "M3": 49}
        assert {k: len(v) for k, v in REFERENCE_TABLES.items()} == expected


class TestPairing:
    def test_m12_example(self):
        d1 = ChowClass.from_coefficients("M12", 1, {"Delta_1": 1})
        assert pairing(d1, d1) == F(-1, 24)

    def test_m3_example(self):
        surface = ChowClass.from_coefficients("M3", 4, {"Delta_[11]": 1})
        square = ChowClass.from_coefficients("M3", 2, {"lambda^2": 1})
        assert pairing(surface, square) == F(1, 288)

    def test_zero_class(self):
        z = ChowClass.from_coefficients("M2", 2, {})
        d0 = ChowClass.from_coefficients("M2", 1, {"Delta_0": 1})
        assert pairing(z, d0) == 0

    def test_symmetry_on_random_classes(self):
        rng = random.Random(606)
        for _ in range(20):
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
            other = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
            labels = basis_labels("M21", 2)
            a = ChowClass("M21", 2, labels, tuple(coeffs))
            b = ChowClass("M21", 2, labels, tuple(other))
            assert pairing(a, b) == pairing(b, a)

    def test_degree_mismatch_rejected(self):
        a = ChowClass.from_coefficients("M2", 1, {"Delta_0": 1})
        with pytest.raises(ValueError):
            pairing(a, a)

    def test_unpaired_degrees_named(self, plant):
        # one message, from the one lookup, names the space and both degrees
        message = r"^degrees 1 and 2 are not paired on M21$"
        with pytest.raises(ValueError, match=message):
            pairing_number("M21", "Delta_1", 1, "Delta_00", 2)
        with pytest.raises(ValueError, match=message):
            pairing(
                ChowClass.from_coefficients("M21", 1, {"Delta_1": 1}),
                ChowClass.from_coefficients("M21", 2, {"Delta_00": 1}),
            )
        plant(chow.SPACES, "M21", "pairings", change=lambda pairings: {
            key: block for key, block in pairings.items() if key != (1, 3)
        })
        profile = dict.fromkeys(basis_labels("M21", 3), 0)
        with pytest.raises(ValueError, match=r"^degrees 1 and 3 are not paired on M21$"):
            solve_class("M21", 1, profile)

    @pytest.mark.parametrize(
        "args",
        [
            ("Delta_9", 1, "Delta_00", 2),
            ("Delta_0", 1, "Delta_9", 2),
            ("Delta_00", 2, "Delta_9", 1),
        ],
    )
    def test_unregistered_label_named(self, args):
        with pytest.raises(ValueError, match=r"'Delta_9' not in the degree-\d basis"):
            pairing_number("M2", *args)


class TestSolveClass:
    def test_m12_example(self):
        profile = {"Delta_0": 3, "Delta_1": 0}
        solved = solve_class("M12", 1, profile)
        assert solved == ChowClass.from_coefficients(
            "M12", 1, {"Delta_0": F(1, 8), "Delta_1": 3}
        )

    def test_zero_profile(self):
        for space_id, degree, duals in (
            ("M12", 1, ("Delta_0", "Delta_1")),
            ("M2", 1, ("Delta_00", "Delta_01")),
            ("M21", 2, basis_labels("M21", 2)),
            ("M3", 2, basis_labels("M3", 4)),
        ):
            profile = {label: 0 for label in duals}
            assert not any(solve_class(space_id, degree, profile).coefficients)

    @pytest.mark.parametrize(
        "space_id,degree,dual_degree",
        [("M12", 1, 1), ("M2", 1, 2), ("M2", 2, 1), ("M21", 2, 2), ("M3", 2, 4)],
    )
    def test_solve_inverts_pairing(self, space_id, degree, dual_degree):
        rng = random.Random(707)
        labels = basis_labels(space_id, degree)
        duals = basis_labels(space_id, dual_degree)
        for _ in range(10):
            coeffs = tuple(
                F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in labels
            )
            cls = ChowClass(space_id, degree, labels, coeffs)
            profile = MappingProxyType({
                dual: pairing(cls, ChowClass.from_coefficients(space_id, dual_degree, {dual: 1}))
                for dual in duals
            })
            assert solve_class(space_id, degree, profile) == cls

    def test_singular_system(self):
        # four equations cannot pin five unknowns
        partial = {label: 0 for label in basis_labels("M21", 2)[:4]}
        with pytest.raises(SingularSystemError):
            solve_class("M21", 2, partial)

    def test_inconsistent_system(self):
        # the four registered M13 curve classes pair to zero with the
        # divisors that keep {2,3} together, so demanding 1 there while the
        # rest vanish is unsatisfiable
        values = {label: 0 for label in basis_labels("M13", 1)}
        values["Delta_1_{2,3}"] = 1
        with pytest.raises(InconsistentSystemError):
            solve_class("M13", 2, values)

    def test_unknown_profile_label(self):
        with pytest.raises(ValueError):
            solve_class("M2", 1, {"Delta_99": 1})
        wrong_dual = {"Delta_0": 1, "Delta_1": 0}
        with pytest.raises(ValueError):
            solve_class("M2", 1, wrong_dual)  # duals of degree 1 are degree 2

    @pytest.mark.parametrize("inexact", [0.5, "1/2"])
    def test_inexact_profile_number_refused(self, inexact):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            solve_class("M12", 1, {"Delta_0": inexact, "Delta_1": 0})


class TestQClassConversion:
    def test_m2_divisors(self):
        cls = ChowClass.from_coefficients("M2", 1, {"Delta_0": 1, "Delta_1": 1})
        converted = to_q_class_basis(cls)
        assert converted.labels == ("delta_0", "delta_1")
        assert converted.coefficients == (F(2), F(2))

    def test_m21_binodal_factor(self):
        cls = ChowClass.from_coefficients("M21", 2, {"Delta_00": 1})
        converted = to_q_class_basis(cls)
        assert converted.coefficient("delta_00") == 8
        assert converted.coefficient("delta_11") == 0

    def test_zero_class(self):
        zero = ChowClass.from_coefficients("M2", 2, {})
        assert not any(to_q_class_basis(zero).coefficients)

    def test_m3_is_already_substack(self):
        cls = ChowClass.from_coefficients("M3", 2, {"kappa_2": F(5, 7)})
        assert to_q_class_basis(cls) == cls

    def test_substack_labels_pinned(self):
        # written out in full: lower-casing must give exactly these labels
        assert q_basis_labels("M2", 1) == ("delta_0", "delta_1")
        assert q_basis_labels("M2", 2) == ("delta_00", "delta_01")
        assert q_basis_labels("M21", 2) == (
            "delta_00", "delta_01a", "delta_01b", "xi_1", "delta_11",
        )
        assert q_basis_labels("M3", 2) == (
            "lambda^2", "lambda*delta_0", "lambda*delta_1", "delta_0^2",
            "delta_0*delta_1", "delta_1^2", "kappa_2",
        )

    def test_unregistered_conversion_rejected(self):
        with pytest.raises(ValueError):
            to_q_class_basis(ChowClass.from_coefficients("M12", 1, {}))


class TestPushforward:
    def test_substack_generators(self):
        # every surface the forget map keeps has the automorphism order of its
        # image divisor, so on substack classes the map has degree 1
        m21, m2 = chow.SPACES["M21"], chow.SPACES["M2"]
        for surface, image in chow.FORGET_M21_TO_M2.items():
            if image is not None:
                assert m21.q_factors[2][surface] == m2.q_factors[1][image], surface
        images = {
            "delta_00": None,
            "delta_01a": None,
            "delta_01b": None,
            "xi_1": "delta_0",
            "delta_11": "delta_1",
        }
        labels = q_basis_labels("M21", 2)
        assert labels == tuple(images)
        for label, image in images.items():
            generator = ChowClass("M21", 2, labels, tuple(F(x == label) for x in labels))
            expected = tuple(F(y == image) for y in ("delta_0", "delta_1"))
            assert pushforward_m21_to_m2(generator) == ChowClass(
                "M2", 1, ("delta_0", "delta_1"), expected
            ), label

    def test_upper_basis_refused(self):
        upper = ChowClass.from_coefficients("M21", 2, {"Xi_1": 1})
        with pytest.raises(ValueError, match="substack basis"):
            pushforward_m21_to_m2(upper)

    def test_substack_basis(self):
        labels = q_basis_labels("M21", 2)
        cls = ChowClass("M21", 2, labels, (F(1), F(2), F(3), F(4), F(5)))
        pushed = pushforward_m21_to_m2(cls)
        assert pushed.labels == ("delta_0", "delta_1")
        assert pushed.coefficients == (F(4), F(5))

    def test_wrong_space_rejected(self):
        with pytest.raises(ValueError):
            pushforward_m21_to_m2(ChowClass.from_coefficients("M2", 1, {}))


class TestChowClass:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            ChowClass.from_coefficients("M2", 1, {"nonsense": 1})

    def test_json_shape(self):
        cls = ChowClass.from_coefficients("M2", 1, {"Delta_0": F(-1, 2)})
        assert cls.to_json_dict() == {
            "space": "M2",
            "degree": 1,
            "coeffs": {"Delta_0": "-1/2", "Delta_1": "0"},
        }
