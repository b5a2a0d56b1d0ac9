"""Registry transcription, pairing, solving, basis conversion, pushforward."""

import random
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from delliptic import chow
from delliptic.chow import (
    ChowClass,
    ClassSeries,
    basis_labels,
    pairing,
    pairing_number,
    pushforward_m21_to_m2,
    q_basis_labels,
    solve_class,
    solve_class_series,
    space,
    to_q_class_basis,
)
from delliptic.linalg import InconsistentSystemError, SingularSystemError
from delliptic.series import QSeries


def on_basis(space_id, degree, values):
    """A class on the registered basis: the given values by label, 0 elsewhere."""
    labels = basis_labels(space_id, degree)
    return ChowClass(space_id, degree, labels, tuple(F(values.get(label, 0)) for label in labels))


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
            a = on_basis(space_id, deg_row, {row: 1})
            b = on_basis(space_id, deg_col, {col: 1})
            assert pairing(a, b) == value
            assert pairing(b, a) == value

    def test_each_degree_in_one_pairing_block(self):
        # a class solve reads its dual degree off the one block with its degree
        for sp in chow.SPACES.values():
            for degree in sp.bases:
                assert sum(degree in key for key in sp.pairings) <= 1, (sp.space_id, degree)

    def test_reference_covers_whole_registry(self):
        # every registered entry is pinned: count entries per space
        expected = {"M12": 3, "M13": 20, "M2": 4, "M21": 18, "M3": 49}
        assert {k: len(v) for k, v in REFERENCE_TABLES.items()} == expected


class TestPairing:
    def test_m12_example(self):
        d1 = on_basis("M12", 1, {"Delta_1": 1})
        assert pairing(d1, d1) == F(-1, 24)

    def test_m3_example(self):
        surface = on_basis("M3", 4, {"Delta_[11]": 1})
        square = on_basis("M3", 2, {"lambda^2": 1})
        assert pairing(surface, square) == F(1, 288)

    def test_zero_class(self):
        z = on_basis("M2", 2, {})
        d0 = on_basis("M2", 1, {"Delta_0": 1})
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
        a = on_basis("M2", 1, {"Delta_0": 1})
        with pytest.raises(ValueError):
            pairing(a, a)

    def test_unpaired_degrees_named(self, plant):
        # a pairing lookup names the space and both degrees; a class solve,
        # which reads its dual degree off the blocks, names its one degree
        message = r"^degrees 1 and 2 are not paired on M21$"
        with pytest.raises(ValueError, match=message):
            pairing_number("M21", "Delta_1", 1, "Delta_00", 2)
        with pytest.raises(ValueError, match=message):
            pairing(
                on_basis("M21", 1, {"Delta_1": 1}),
                on_basis("M21", 2, {"Delta_00": 1}),
            )
        plant(chow.SPACES, "M21", "pairings", change=lambda pairings: {
            key: block for key, block in pairings.items() if key != (1, 3)
        })
        profile = dict.fromkeys(basis_labels("M21", 3), 0)
        with pytest.raises(ValueError, match=r"^degree 1 is not paired on M21$"):
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
        assert solved == on_basis("M12", 1, {"Delta_0": F(1, 8), "Delta_1": 3})

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
                dual: pairing(cls, on_basis(space_id, dual_degree, {dual: 1}))
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
        with pytest.raises(ValueError, match="at least one row"):
            solve_class("M2", 1, {})

    @pytest.mark.parametrize("inexact", [0.5, "1/2"])
    def test_inexact_profile_number_refused(self, inexact):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            solve_class("M12", 1, {"Delta_0": inexact, "Delta_1": 0})

    def test_unknown_label_refused_before_inexact_number(self):
        with pytest.raises(ValueError, match=r"'Delta_99' not in the degree-2 basis of M2"):
            solve_class("M2", 1, {"Delta_99": 0.5})


def _series_table(profiles):
    """{label: QSeries} whose q^d coefficient is profiles[d][label]."""
    return {label: QSeries([profile[label] for profile in profiles]) for label in profiles[0]}


class TestSolveClassSeries:
    @pytest.mark.parametrize(
        "space_id,degree,dual_degree",
        [("M12", 1, 1), ("M2", 1, 2), ("M2", 2, 1), ("M21", 2, 2), ("M3", 2, 4)],
    )
    def test_solve_class_at_every_coefficient(self, space_id, degree, dual_degree):
        rng = random.Random(909)
        duals = basis_labels(space_id, dual_degree)
        profiles = [{label: F(rng.randint(-12, 12), rng.randint(1, 6)) for label in duals}
                    for _ in range(8)]
        solved = solve_class_series(space_id, degree, _series_table(profiles))
        assert tuple(solved) == basis_labels(space_id, degree)
        with pytest.raises(TypeError):
            solved[duals[0]] = None  # read-only
        for d, profile in enumerate(profiles):
            cls = solve_class(space_id, degree, profile)
            assert tuple(s.coefficient(d) for s in solved.values()) == cls.coefficients

    def test_singular_system(self):
        labels = basis_labels("M21", 2)[:4]
        with pytest.raises(SingularSystemError):
            solve_class_series("M21", 2, {label: QSeries.zero(5) for label in labels})

    def test_inconsistent_at_one_coefficient(self):
        # consistent (all zero) but at q^3, as in TestSolveClass
        labels = basis_labels("M13", 1)
        profiles = [{label: 0 for label in labels} for _ in range(6)]
        profiles[3]["Delta_1_{2,3}"] = 1
        with pytest.raises(InconsistentSystemError):
            solve_class_series("M13", 2, _series_table(profiles))

    def test_unknown_profile_label(self):
        with pytest.raises(ValueError, match=r"'Delta_99' not in the degree-2 basis of M2"):
            solve_class_series("M2", 1, {"Delta_99": QSeries.zero(3)})
        with pytest.raises(ValueError):
            solve_class_series("M2", 1, {"Delta_0": QSeries.zero(3), "Delta_1": QSeries.zero(3)})


class TestQClassConversion:
    def test_m2_divisors(self):
        cls = on_basis("M2", 1, {"Delta_0": 1, "Delta_1": 1})
        converted = to_q_class_basis(cls)
        assert converted.labels == ("delta_0", "delta_1")
        assert converted.coefficients == (F(2), F(2))

    def test_m21_binodal_factor(self):
        cls = on_basis("M21", 2, {"Delta_00": 1})
        converted = to_q_class_basis(cls)
        assert converted.coefficient("delta_00") == 8
        assert converted.coefficient("delta_11") == 0

    def test_zero_class(self):
        zero = on_basis("M2", 2, {})
        assert not any(to_q_class_basis(zero).coefficients)

    def test_m3_is_already_substack(self):
        cls = on_basis("M3", 2, {"kappa_2": F(5, 7)})
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
            to_q_class_basis(on_basis("M12", 1, {}))


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
        upper = on_basis("M21", 2, {"Xi_1": 1})
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
            pushforward_m21_to_m2(on_basis("M2", 1, {}))

    def test_class_series_is_the_per_d_pushforward(self):
        rng = random.Random(4242)
        labels = q_basis_labels("M21", 2)
        series = tuple(QSeries([F(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(13)])
                       for _ in labels)
        table = ClassSeries("M21", 2, labels, series)
        pushed = pushforward_m21_to_m2(table)
        assert (pushed.space_id, pushed.degree, pushed.labels, pushed.order) == (
            "M2", 1, ("delta_0", "delta_1"), 12)
        for d in range(13):
            assert pushed.coefficient(d) == pushforward_m21_to_m2(table.coefficient(d)), d
        upper = ClassSeries("M21", 2, basis_labels("M21", 2), series)
        with pytest.raises(ValueError, match="substack basis"):
            pushforward_m21_to_m2(upper)


class TestChowClass:
    def test_json_shape(self):
        cls = on_basis("M2", 1, {"Delta_0": F(-1, 2)})
        assert cls.to_json_dict() == {
            "space": "M2",
            "degree": 1,
            "coeffs": {"Delta_0": "-1/2", "Delta_1": "0"},
        }


def lower_case(cls):
    """The class with its labels lower-cased: off the registered basis."""
    return ChowClass(cls.space_id, cls.degree, tuple(label.lower() for label in cls.labels),
                     cls.coefficients)


class TestRefusals:
    """Each registry and class refusal, with the message that names it."""

    @pytest.mark.parametrize("call,message", [
        pytest.param(lambda: space("M4"), "unknown space 'M4'", id="space"),
        pytest.param(lambda: basis_labels("M2", 3), "no degree-3 basis registered on M2",
                     id="basis_labels"),
        pytest.param(lambda: q_basis_labels("M12", 1),
                     "no substack conversion registered for M12 degree 1", id="q_basis_labels"),
        pytest.param(lambda: ChowClass("M2", 1, ("Delta_0", "Delta_1"), (F(1),)),
                     "labels and coefficients must have equal length", id="ChowClass"),
        pytest.param(lambda: on_basis("M2", 1, {}).coefficient("Delta_9"),
                     "label 'Delta_9' not in this class's basis", id="coefficient"),
        pytest.param(lambda: pairing(on_basis("M2", 1, {"Delta_0": 1}),
                                     on_basis("M12", 1, {"Delta_1": 1})),
                     "cannot pair classes on different spaces", id="pairing-spaces"),
        pytest.param(lambda: pairing(lower_case(on_basis("M2", 1, {"Delta_0": 1})),
                                     on_basis("M2", 2, {"Delta_00": 1})),
                     "pairing requires classes on the registered bases", id="pairing-basis"),
        pytest.param(lambda: to_q_class_basis(lower_case(on_basis("M2", 1, {"Delta_0": 1}))),
                     "conversion requires a class on the registered basis",
                     id="to_q_class_basis"),
    ])
    def test_refusal_named(self, call, message):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message
