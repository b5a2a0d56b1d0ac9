"""Command-line surface: formatting, JSON schema, exit codes, determinism."""

import copy
import dataclasses
import importlib
import io
import json
import sys
from fractions import Fraction as F
from math import gcd

import pytest

from delliptic import chow, covers, loci, quasimodular, report
from delliptic.cli import main
from delliptic.divisors import TABLE_ORDER_CEILING, sigma
from delliptic.errors import CrossCheckError
from delliptic.series import QSeries

# the package re-exports the function `divisors`, which shadows the module
divisors = importlib.import_module("delliptic.divisors")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "class", "m2", "--d", "2")
        assert code == 0
        assert out.strip() == "6*delta_0 + 24*delta_1"

    def test_vanishing_class(self, capsys):
        code, out, _ = run(capsys, "class", "m3", "--d", "1")
        assert code == 0
        assert out.strip() == "0"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "class", "m21", "--d", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "delliptic/1"
        assert payload["class"]["coeffs"]["delta_00"] == "1/4"
        assert payload["class"]["coeffs"]["xi_1"] == "6"

    def test_usage_error_on_bad_d(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["class", "m2", "--d", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["class", "m2", "--d", "0"], "argument --d: must be >= 1, got 0"),
        (["series", "m2", "delta_0", "--N", "-1"], "argument --N: must be >= 0, got -1"),
        (["verify", "--max-d", "x"], "argument --max-d: not an integer: 'x'"),
    ])
    def test_usage_error_names_the_bound(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_usage_error_on_bad_space(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["class", "m9", "--d", "2"])
        assert exc.value.code == 2

    def test_at_ceiling(self, capsys):
        d = TABLE_ORDER_CEILING
        code, out, _ = run(capsys, "class", "m2", "--d", str(d), "--json")
        assert code == 0
        coeffs = json.loads(out)["class"]["coeffs"]
        assert coeffs["delta_1"] == str(4 * sigma(3, d) - 4 * sigma(1, d))

    def test_above_ceiling(self, capsys, empty_caches):
        # the library refuses before it builds a table
        d = TABLE_ORDER_CEILING + 1
        for space in loci.FAMILIES:
            code, out, err = run(capsys, "class", space, "--d", str(d))
            assert code == 2
            assert out == ""
            assert f"d = {d} exceeds the table order ceiling {TABLE_ORDER_CEILING}" in err
        assert [cache for cache in empty_caches if cache.cache_info().currsize] == []


class TestSeriesCommand:
    def test_series_values_and_fit(self, capsys):
        code, out, _ = run(capsys, "series", "m2", "delta_0", "--N", "10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"][:4] == ["0", "0", "6", "32"]
        assert "monomials" in payload["fit"]

    def test_order_below_basis_size(self, capsys):
        code, _, err = run(capsys, "series", "m2", "delta_0", "--N", "3")
        assert code == 2
        assert "error" in err

    def test_unknown_label(self, capsys):
        code, _, err = run(capsys, "series", "m2", "delta_9", "--N", "10")
        assert code == 2
        assert "delta_9" in err

    def test_at_ceiling(self, capsys):
        n = TABLE_ORDER_CEILING
        code, out, _ = run(capsys, "series", "m2", "delta_0", "--N", str(n), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"][n] == str(2 * sigma(3, n) - 2 * n * sigma(1, n))
        assert "monomials" in payload["fit"]

    def test_above_ceiling(self, capsys, empty_caches):
        # the library refuses the order before it builds a table or a basis
        n = TABLE_ORDER_CEILING + 1
        code, out, err = run(capsys, "series", "m3", "kappa_2", "--N", str(n))
        assert code == 2
        assert out == ""
        assert f"order = {n} exceeds the table order ceiling {TABLE_ORDER_CEILING}" in err
        assert [cache for cache in empty_caches if cache.cache_info().currsize] == []


class TestQmodFitCommand:
    def test_fit_from_file(self, capsys, tmp_path):
        from delliptic.divisors import sigma

        series = ["0"] + [str(sigma(3, d)) for d in range(1, 31)]
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series))
        code, out, _ = run(capsys, "qmod-fit", "--in", str(path), "--weight", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["monomials"] == [
            {"a": 0, "b": 0, "c": 0, "coeff": "-1/240"},
            {"a": 0, "b": 1, "c": 0, "coeff": "1/240"},
        ]

    def test_fit_from_stdin(self, capsys, tmp_path, monkeypatch):
        # without --in the array is read from stdin, to the same payload
        series = json.dumps(["0"] + [str(sigma(3, d)) for d in range(1, 31)])
        path = tmp_path / "series.json"
        path.write_text(series)
        from_file = run(capsys, "qmod-fit", "--in", str(path), "--weight", "4")
        assert from_file[0] == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(series))
        assert run(capsys, "qmod-fit", "--weight", "4") == from_file

    def test_refusal_from_file(self, capsys, tmp_path):
        from delliptic.divisors import sigma

        series = ["0"] + [str(d * sigma(0, d)) for d in range(1, 31)]
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series))
        code, out, _ = run(capsys, "qmod-fit", "--in", str(path))
        assert code == 0
        assert "not_quasimodular" in json.loads(out)

    def test_bad_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        code, _, err = run(capsys, "qmod-fit", "--in", str(path))
        assert code == 2

    @pytest.mark.parametrize("items", [
        [1, 2, 3], ["1", ["2"]], ["1/0", "1"],
        # long enough to fit if the strings were read as numbers
        ["0.5", "1e3", "1_000", *["0"] * 30],
    ])
    def test_malformed_items(self, capsys, tmp_path, items):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(items))
        code, out, err = run(capsys, "qmod-fit", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_empty_array_refused_naming_it(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        code, out, err = run(capsys, "qmod-fit", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: a series needs at least its q^0 coefficient, got an empty list\n"

    def test_deep_nesting_refused(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "qmod-fit", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_oversized_weight_refused_before_enumerating(
        self, capsys, tmp_path, monkeypatch
    ):
        # an AssertionError is not turned into exit 2: listing the monomials
        # would fail the test instead of refusing
        def refuse(*args):
            raise AssertionError("monomials listed for an oversized weight")

        monkeypatch.setattr(quasimodular, "_monomials_up_to", refuse)
        path = tmp_path / "series.json"
        path.write_text('["0", "1", "2"]')
        for argv in (
            ("series", "m2", "delta_0", "--N", "30", "--weight", "1000000"),
            ("qmod-fit", "--in", str(path), "--weight", "1000000"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "1000000" in err


    @pytest.mark.parametrize("by_length", [True, False])
    def test_order_ceiling(self, capsys, tmp_path, plant, by_length):
        # the order comes from the array length or from --N; a basis is built
        # at the ceiling and never above it
        class BasisBuilt(Exception):
            pass

        def refuse(*args):
            raise BasisBuilt

        plant(quasimodular.quasimodular_basis, change=lambda original: refuse)
        n = TABLE_ORDER_CEILING
        for order in (n, n + 1):
            path = tmp_path / "series.json"
            path.write_text(json.dumps(["0"] * (order + 1 if by_length else n + 2)))
            argv = ["qmod-fit", "--in", str(path)]
            if not by_length:
                argv += ["--N", str(order)]
            if order == n:
                with pytest.raises(BasisBuilt):
                    main(argv)
                continue
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert f"order = {order} exceeds the table order ceiling {n}" in err

    def test_fit_at_the_ceiling(self, capsys, tmp_path):
        n = TABLE_ORDER_CEILING
        path = tmp_path / "series.json"
        path.write_text(json.dumps(["0"] + [str(sigma(3, d)) for d in range(1, n + 1)]))
        code, out, _ = run(capsys, "qmod-fit", "--in", str(path), "--weight", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == n
        assert payload["fit"]["monomials"] == [
            {"a": 0, "b": 0, "c": 0, "coeff": "-1/240"},
            {"a": 0, "b": 1, "c": 0, "coeff": "1/240"},
        ]

    @pytest.mark.parametrize("command", ["series", "qmod-fit"])
    def test_weight_ceiling(self, capsys, tmp_path, plant, command):
        # a basis is built at the ceiling; above it the command exits 2
        # before any class or basis work
        class Worked(Exception):
            pass

        def refuse(*args):
            raise Worked

        plant(quasimodular.quasimodular_basis, change=lambda original: refuse)
        path = tmp_path / "series.json"
        path.write_text(json.dumps(["0"] * 201))
        argv = {"series": ["series", "m2", "delta_0", "--N", "30"],
                "qmod-fit": ["qmod-fit", "--in", str(path)]}[command]
        w = quasimodular.FIT_WEIGHT_CEILING
        with pytest.raises(Worked):
            main([*argv, "--weight", str(w)])
        plant(loci.coefficient_series, change=lambda original: refuse)
        code, out, err = run(capsys, *argv, "--weight", str(w + 2))
        assert code == 2
        assert out == ""
        assert f"max_weight = {w + 2} exceeds the fit weight ceiling {w}" in err


    @pytest.mark.parametrize("command", ["series", "qmod-fit"])
    def test_odd_weight_refused_before_any_work(self, capsys, tmp_path, empty_caches, command):
        # the evenness rule lives with the weight ceiling in
        # quasimodular.require_fit_weight: no class table, monomial or
        # basis is built for an odd weight
        path = tmp_path / "series.json"
        path.write_text(json.dumps(["0"] * 31))
        argv = {"series": ["series", "m3", "lambda^2", "--N", "1024"],
                "qmod-fit": ["qmod-fit", "--in", str(path)]}[command]
        code, out, err = run(capsys, *argv, "--weight", "3")
        assert (code, out, err) == (2, "", "error: max_weight must be even, got 3\n")
        assert loci._class_table.cache_info().currsize == 0
        assert quasimodular._monomial_series.cache_info().currsize == 0
        assert [cache for cache in empty_caches if cache.cache_info().currsize] == []


class TestHurwitzCommand:
    def test_count(self, capsys):
        code, out, _ = run(
            capsys,
            "hurwitz", "--d", "4",
            "--profile", "4", "--profile", "4", "--profile", "3,1",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_fractional_count(self, capsys):
        code, out, _ = run(
            capsys,
            "hurwitz", "--d", "3",
            "--profile", "3", "--profile", "3", "--profile", "3",
        )
        assert code == 0
        assert out.strip() == "1/3"

    def test_json_keeps_the_given_profile_order(self, capsys):
        # counted in another order of this list; the output lists it as given
        given = ["2,1,1,1,1,1,1", "8", "8", "2,1,1,1,1,1,1"]
        code, out, _ = run(
            capsys, "hurwitz", "--d", "8",
            *[arg for p in given for arg in ("--profile", p)], "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["profiles"] == given
        assert payload["count"] == "42"

    def test_alternating_profiles_within_budget(self, capsys):
        # no rotation or reversal keeps both 8-cycles out of the middle
        code, out, _ = run(
            capsys, "hurwitz", "--d", "8",
            *["--profile", "8", "--profile", "2,1,1,1,1,1,1"] * 2,
        )
        assert code == 0
        assert out.strip() == "42"

    def test_size_mismatch(self, capsys):
        code, _, err = run(
            capsys, "hurwitz", "--d", "4", "--profile", "3", "--profile", "4"
        )
        assert code == 2

    def test_tuple_budget(self, capsys, monkeypatch):
        def refuse(profile):
            raise AssertionError("listed a class above the tuple budget")

        monkeypatch.setattr(covers, "conjugacy_class", refuse)
        code, out, err = run(
            capsys, "hurwitz", "--d", "8", *["--profile", "2,1,1,1,1,1,1"] * 12
        )
        assert code == 2
        assert out == ""
        assert "budget" in err


class TestCountCommand:
    @pytest.mark.parametrize(
        "kind,d,expected",
        [
            ("sublattices", 6, "12"),
            ("pointed-isogenies", 4, "21"),
            ("pointed-isogenies", 200, str(199 * sigma(1, 200))),
            ("pointed-isogenies", 1000, str(999 * sigma(1, 1000))),
            ("sublattices", 1000, str(sigma(1, 1000))),
            ("dd22", 2, "6"),
            ("dd2222", 2, "720"),
        ],
    )
    def test_counts(self, capsys, kind, d, expected):
        code, out, _ = run(capsys, "count", kind, "--d", str(d))
        assert code == 0
        assert out.strip() == expected

    def test_pointed_isogenies_above_ceiling(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated above the ceiling")

        monkeypatch.setattr(covers, "count_sublattices", refuse)
        d = TABLE_ORDER_CEILING + 1
        code, out, err = run(capsys, "count", "pointed-isogenies", "--d", str(d))
        assert code == 2
        assert out == ""
        assert str(TABLE_ORDER_CEILING) in err

    def test_dd2222_above_ceiling(self, capsys):
        # a closed polynomial reads no table, so the table budget does not bound it
        d = TABLE_ORDER_CEILING + 1
        code, out, _ = run(capsys, "count", "dd2222", "--d", str(d))
        assert code == 0
        assert out.strip() == str(covers.count_dd2222(d))

    def test_sublattices_above_ceiling(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("listed divisors above the ceiling")

        monkeypatch.setattr(covers, "divisors", refuse)
        d = TABLE_ORDER_CEILING + 1
        code, out, err = run(capsys, "count", "sublattices", "--d", str(d))
        assert code == 2
        assert out == ""
        assert str(TABLE_ORDER_CEILING) in err


VERIFY_CHECKS = (
    "pairing-tables",
    "convolution-identities",
    "ramanujan-identities",
    "hurwitz-closed-forms",
    "sublattice-count",
    "pointed-isogeny-count",
    "degeneration-identity",
    "genus2-classes",
    "fixed-target-classes",
    "pointed-genus2-classes",
    "genus3-classes",
    "triple-branch-sums",
    "triple-branch-cancellation",
    "quasimodularity-certification",
)


class TestVerifyCommand:
    def test_check_names_in_order(self):
        result = report.run_verification(max_d=2, order=10)
        assert result["passed"] is True
        assert tuple(c["check"] for c in result["checks"]) == VERIFY_CHECKS

    def test_at_ceilings(self, capsys, monkeypatch):
        calls = []

        def record(max_d, order):
            calls.append((max_d, order))
            return {"passed": True, "first_failure": None, "checks": []}

        monkeypatch.setattr(report, "run_verification", record)
        code, _, _ = run(
            capsys,
            "verify",
            "--max-d", str(TABLE_ORDER_CEILING),
            "--N", str(TABLE_ORDER_CEILING),
        )
        assert code == 0
        assert calls == [(TABLE_ORDER_CEILING, TABLE_ORDER_CEILING)]

    def test_runs_at_the_order_ceiling(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "2", "--N", str(TABLE_ORDER_CEILING))
        assert code == 0
        assert out.count("PASS ") == len(VERIFY_CHECKS)

    @pytest.mark.parametrize("max_d,n,name", [
        (TABLE_ORDER_CEILING + 1, 30, "max_d"),
        (30, TABLE_ORDER_CEILING + 1, "order"),
    ])
    def test_above_ceiling(self, capsys, empty_caches, max_d, n, name):
        # max_d and N are both refused by the library before any check runs
        code, out, err = run(capsys, "verify", "--max-d", str(max_d), "--N", str(n))
        assert code == 2
        assert out == ""
        assert f"{name} = {TABLE_ORDER_CEILING + 1} exceeds the table order ceiling " \
            f"{TABLE_ORDER_CEILING}" in err
        assert [cache for cache in empty_caches if cache.cache_info().currsize] == []

    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-d", "3", "--N", "10")
        assert code == 0
        assert "PASS pairing-tables" in out
        assert "FAIL" not in out

    def test_json_report_deterministic(self, capsys, tmp_path):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "verify", "--max-d", "2", "--N", "10", "--json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["schema"] == "delliptic/1"
        assert payload["passed"] is True
        assert sorted(payload["classes"]) == ["m2", "m21", "m2e", "m3"]
        for entries in payload["classes"].values():
            assert [e["d"] for e in entries] == [1, 2]
            assert all(e["agree"] for e in entries)
            assert all(e["solved"] == e["closed"] for e in entries)
        assert sorted(payload["series"]["m2"]) == ["delta_0", "delta_1"]

    def test_class_report_formats_closed_as_its_own_copy(self, monkeypatch):
        # an agreeing closed class is the solved one's format, copied: the
        # report shares no mutable dict between its two entries
        for family in loci.FAMILIES:
            for d in (1, 2, 5):
                entry = report.class_report(family, d)
                assert entry["agree"] is True
                assert entry["closed"] == loci.closed_class(family, d).to_json_dict()
                assert entry["closed"] == entry["solved"]
                assert entry["closed"] is not entry["solved"]
                assert entry["closed"]["coeffs"] is not entry["solved"]["coeffs"]
        # a disagreeing closed class is formatted on its own
        original = loci.closed_class
        wrong = lambda family, d: dataclasses.replace(
            original(family, d), coefficients=(F(1, 7),) + original(family, d).coefficients[1:])
        monkeypatch.setattr(loci, "closed_class", wrong)
        entry = report.class_report("m2", 2)
        assert entry["agree"] is False
        assert entry["closed"] == wrong("m2", 2).to_json_dict() != entry["solved"]
        assert entry["closed"]["coeffs"]["delta_0"] == "1/7"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--max-d", "2", "--N", "10", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["passed"] is True

    def test_corrupted_pairing_table_fails_named_check(self, capsys, plant):
        plant(chow.SPACES, "M21", "pairings", (2, 2), 0, 3, change=lambda v: v + 1)
        result = report.run_verification(max_d=2, order=10)
        assert result["passed"] is False
        assert result["first_failure"] == "pairing-tables"
        by_name = {c["check"]: c for c in result["checks"]}
        assert "asymmetric" in by_name["pairing-tables"]["detail"]

        code, out, _ = run(capsys, "verify", "--max-d", "2", "--N", "10")
        assert code == 1
        assert "FAIL pairing-tables" in out
        assert "FIRST FAILURE: pairing-tables" in out

    @pytest.mark.parametrize(
        "attr,route,one",
        [
            pytest.param("count_pointed_isogenies_enumerated", "brute-force", 1,
                         id="count_pointed_isogenies_enumerated-brute-force"),
            pytest.param("count_pointed_isogenies", "structural", 1,
                         id="count_pointed_isogenies-structural"),
            # the closed form is a row, read as one series: wrong at every q^d
            pytest.param("sigma_series", "closed-form",
                         QSeries([1] * (covers.SUBGROUP_ENUMERATION_BUDGET + 1)),
                         id="sigma-closed-form"),
        ],
    )
    def test_wrong_isogeny_route_is_named(self, monkeypatch, attr, route, one):
        original = getattr(report, attr)
        monkeypatch.setattr(report, attr, lambda *args: original(*args) + one)
        with pytest.raises(CrossCheckError) as exc:
            report._check_pointed_isogenies()
        assert f": {route} disagrees" in str(exc.value)

    def test_wrong_brute_force_fails_named_check(self, monkeypatch):
        original = report.count_pointed_isogenies_enumerated
        monkeypatch.setattr(
            report, "count_pointed_isogenies_enumerated", lambda d: original(d) + 1
        )
        result = report.run_verification(max_d=2, order=10)
        assert len(result["checks"]) == 14
        assert result["first_failure"] == "pointed-isogeny-count"
        by_name = {c["check"]: c for c in result["checks"]}
        assert "brute-force disagrees" in by_name["pointed-isogeny-count"]["detail"]

    def test_certification_runs_once(self, monkeypatch):
        calls = []
        original = loci.certify_quasimodularity

        def counted(order, *args):
            calls.append(order)
            return original(order, *args)

        monkeypatch.setattr(loci, "certify_quasimodularity", counted)
        result = report.run_verification(max_d=2, order=10)
        assert result["passed"] is True
        assert calls == [10]
        assert sorted(result["series"]) == ["m2", "m21", "m2e", "m3"]

    def test_report_reuses_solved_classes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("class solved a second time")

        monkeypatch.setattr(report.chow, "solve_class", refuse)
        result = report.run_verification(max_d=3, order=10)
        assert result["passed"] is True
        assert [e["d"] for e in result["classes"]["m3"]] == [1, 2, 3]
        assert all(e["agree"] for entries in result["classes"].values() for e in entries)

    def test_raising_certification_fails_named_check(self, monkeypatch):
        def refuse(order, *args):
            raise CrossCheckError("planted certification failure")

        monkeypatch.setattr(loci, "certify_quasimodularity", refuse)
        result = report.run_verification(max_d=2, order=10)
        assert len(result["checks"]) == 14
        assert result["passed"] is False
        assert result["first_failure"] == "quasimodularity-certification"
        by_name = {c["check"]: c for c in result["checks"]}
        assert "planted certification failure" in (
            by_name["quasimodularity-certification"]["detail"]
        )
        assert result["series"] == {}

    def test_corrupted_table_fails_class_command(self, capsys, plant):
        plant(chow.SPACES, "M21", "pairings", (2, 2), 4, 4, change=lambda v: v + 1)
        code, _, err = run(capsys, "class", "m21", "--d", "6")
        assert code == 1
        assert "verification failure" in err


class TestMutationProbes:
    """Each planted error makes `verify` fail, with the checks that catch it
    named."""

    @staticmethod
    def failed_checks(result):
        assert result["passed"] is False
        return {c["check"] for c in result["checks"] if not c["passed"]}

    @staticmethod
    def bumped_at_3(original):
        return lambda d: original(d) + (d == 3)

    def test_wrong_dd22(self, plant):
        plant(covers.count_dd22, change=self.bumped_at_3)
        failed = self.failed_checks(report.run_verification(10, 20))
        assert {"degeneration-identity", "genus2-classes"} <= failed

    def test_wrong_dd3(self, plant):
        # the brute force and the chain sum read the same one-part count
        plant(covers.count_dd3, change=lambda original: lambda d: original(d) + 1)
        failed = self.failed_checks(report.run_verification(10, 20))
        assert {"hurwitz-closed-forms", "triple-branch-sums"} <= failed

    def test_wrong_dd2222(self, plant):
        plant(covers.count_dd2222, change=self.bumped_at_3)
        failed = self.failed_checks(report.run_verification(10, 20))
        assert {"degeneration-identity", "genus3-classes"} <= failed

    def test_missing_non_cyclic_subgroups(self, plant):
        def cyclic_only(original):
            # (x, y), coded x*d + y, has order d exactly when gcd(x, y, d) = 1
            return lambda d: [
                h for h in original(d) if any(gcd(*divmod(c, d), d) == 1 for c in h)
            ]

        plant(covers._order_d_subgroups, change=cyclic_only)
        result = report.run_verification(10, 20)
        assert self.failed_checks(result) == {"pointed-isogeny-count"}
        by_name = {c["check"]: c for c in result["checks"]}
        assert "(d=4): brute-force disagrees" in by_name["pointed-isogeny-count"]["detail"]

    def test_wrong_divisor_list_fails_sublattice_count(self, plant):
        # count_sublattices and sigma both read the divisor list; the closed
        # route factorises d by trial division, so a wrong list fails the check
        plant(divisors.divisors,
              change=lambda original: lambda d: original(d)[:-1] if d == 6 else original(d))
        with pytest.raises(CrossCheckError) as caught:
            report._check_sublattices()
        assert str(caught.value) == ("sublattice-count(d=6): divisor_sum, factorisation "
                                     "disagree (divisor_sum 6, factorisation 12)")

    def test_constant_term_fails_certification(self, plant):
        # every series still fits, its constant monomial taking the planted 1
        def with_constant(original):
            def class_series(family, order):
                one = QSeries.from_function(order, lambda d: int(d == 0))
                return {label: s + one for label, s in original(family, order).items()}
            return class_series

        plant(loci.class_series, change=with_constant)
        result = report.run_verification(6, 12)
        assert self.failed_checks(result) == {"quasimodularity-certification"}
        names = [f"{family}/{label}" for family in loci.FAMILIES
                 for label in loci.family_labels(family)]
        by_name = {c["check"]: c for c in result["checks"]}
        assert by_name["quasimodularity-certification"]["detail"] == (
            f"CrossCheckError: series with a nonzero q^0: {', '.join(names)}")

    @pytest.mark.parametrize("planted,weight", [
        ("E2", 2),
        # E6 is not in the weight-2 identity, so weight 4 is the first to fail
        ("E6", 4),
        # E2 + q, with E4 := E2^2 - 12 D E2 and E6 := E2 E4 - 3 D E4 built
        # from it: weights 2 and 4 hold by construction, and only weight 6,
        # Chazy's equation on E2, can fail
        ("chazy", 6),
    ])
    def test_wrong_eisenstein_fails_its_identity(self, plant, planted, weight):
        def perturbed(original):
            def eisenstein(k, order):
                q = QSeries.from_function(order, lambda d: int(d == 1))
                if planted == "chazy":
                    e2 = original(2, order) + q
                    e4 = e2 * e2 - 12 * quasimodular.q_derivative(e2)
                    return {2: e2, 4: e4, 6: e2 * e4 - 3 * quasimodular.q_derivative(e4)}[k]
                series = original(k, order)
                return series + q if f"E{k}" == planted else series
            return eisenstein

        plant(quasimodular.eisenstein, change=perturbed)
        with pytest.raises(CrossCheckError) as caught:
            report._check_ramanujan(30)
        assert str(caught.value) == f"weight-{weight} derivative identity fails"

    def test_pairing_block_missing_a_row_fails_its_shape(self, plant):
        plant(chow.SPACES, "M21", "pairings", (2, 2), change=lambda table: table[:-1])
        with pytest.raises(CrossCheckError) as caught:
            report._check_pairing_tables()
        assert str(caught.value) == "M21 pairing (2,2) has wrong shape"

    def test_split_part_that_fits_fails_cancellation(self, plant):
        # the split part replaced by the whole sum, which fits at weight 6
        def split_fits(original):
            def table(n):
                parts = original(n)
                return {"chain": parts["chain"], "split": parts["chain"] + parts["split"]}
            return table

        plant(loci._triple_branch_table, change=split_fits)
        with pytest.raises(CrossCheckError) as caught:
            report._check_cancellation(30)
        assert str(caught.value) == "split series unexpectedly fits"

    CLASS_CHECKS = {"genus2-classes", "fixed-target-classes", "pointed-genus2-classes",
                    "genus3-classes"}

    @staticmethod
    def raising_class_report(original):
        def class_report(family, d):
            raise CrossCheckError("planted class report failure")
        return class_report

    def test_raising_detailed_sections_fail_the_report(self, plant):
        # each class check writes its family's class reports as it passes, so
        # a raising report fails the four class checks by name; the series
        # section is the certification check's own and is kept
        plant(report.class_report, change=self.raising_class_report)
        result = report.run_verification(2, 10)
        assert tuple(c["check"] for c in result["checks"]) == VERIFY_CHECKS
        assert self.failed_checks(result) == self.CLASS_CHECKS
        assert {c["detail"] for c in result["checks"] if not c["passed"]} == {
            "CrossCheckError: planted class report failure"}
        assert result["first_failure"] == "genus2-classes"
        assert result["classes"] == {}
        assert sorted(result["series"]) == ["m2", "m21", "m2e", "m3"]

    def test_raising_class_report_after_a_failed_check_is_listed(self, plant, monkeypatch):
        # a section failure after an earlier failed check is still reported
        # under its own check, not dropped for want of a first failure
        original = report.count_pointed_isogenies_enumerated
        monkeypatch.setattr(
            report, "count_pointed_isogenies_enumerated", lambda d: original(d) + 1
        )
        plant(report.class_report, change=self.raising_class_report)
        result = report.run_verification(2, 10)
        assert tuple(c["check"] for c in result["checks"]) == VERIFY_CHECKS
        assert self.failed_checks(result) == {"pointed-isogeny-count"} | self.CLASS_CHECKS
        assert result["first_failure"] == "pointed-isogeny-count"
        assert result["classes"] == {}

    def test_wrong_class_coefficient_fails_named_check(self, plant):
        plant(loci.FAMILIES, "m3", 4, "kappa_2", (0, 3), change=lambda c: c + 1)
        result = report.run_verification(3, 10)
        failed = self.failed_checks(result)
        assert failed == {"genus3-classes", "quasimodularity-certification"}
        by_name = {c["check"]: c for c in result["checks"]}
        assert by_name["genus3-classes"]["detail"].startswith(
            "CrossCheckError: class[m3](d=1): "
        )
        # the failing family alone is left out of the classes section
        assert list(result["classes"]) == ["m2", "m21", "m2e"]
        assert all(e["agree"] for entries in result["classes"].values() for e in entries)

    def verify_with_class_factor_bumped(self, plant, j, k):
        """`verify` with entry (j, k) of every class System's kept block one
        too large: the failing genus-2 class check names the refused solve."""
        def bumped(original):
            def class_system(*key):
                system = copy.copy(original(*key))
                block = [list(row) for row in system.plan.block]
                block[j][k] += 1
                system.plan = dataclasses.replace(system.plan, block=tuple(map(tuple, block)))
                return system
            return class_system

        plant(chow._class_system, change=bumped)
        result = report.run_verification(10, 20)
        assert "genus2-classes" in self.failed_checks(result)
        by_name = {c["check"]: c for c in result["checks"]}
        assert by_name["genus2-classes"]["detail"].startswith("InconsistentSystemError")

    def test_wrong_class_factorisation(self, plant):
        self.verify_with_class_factor_bumped(plant, 0, 0)  # the first pivot

    def test_wrong_class_multiplier(self, plant):
        self.verify_with_class_factor_bumped(plant, 1, 0)  # below the diagonal
