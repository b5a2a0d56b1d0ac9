"""The shared cross-check, per value and per series: agreed values, and
which routes a failure names."""

from fractions import Fraction as F

import pytest

from delliptic.errors import CrossCheckError, crosscheck, crosscheck_series
from delliptic.series import QSeries


def test_returns_agreed_value():
    assert crosscheck("x", 3, direct=F(1, 2), closed=F(1, 2)) == F(1, 2)
    assert crosscheck("x", 3, a=4, b=4, c=4) == 4


def test_three_routes_name_the_outvoted_one():
    with pytest.raises(CrossCheckError) as exc:
        crosscheck("x", 3, a=1, b=2, c=1)
    assert str(exc.value) == "x(d=3): b disagrees (a 1, b 2, c 1)"


def test_two_routes_name_both():
    with pytest.raises(CrossCheckError) as exc:
        crosscheck("x", 5, direct=1, closed=2)
    assert str(exc.value).startswith("x(d=5): direct, closed disagree (")


def test_no_two_agree_names_every_route():
    with pytest.raises(CrossCheckError) as exc:
        crosscheck("x", 5, a=1, b=2, c=3)
    assert str(exc.value).startswith("x(d=5): a, b, c disagree (")


def test_hyphenated_route_names_are_kept():
    routes = {"brute-force": 7, "structural": 6, "closed-form": 6}
    with pytest.raises(CrossCheckError) as exc:
        crosscheck("pointed-isogeny-count", 4, **routes)
    assert ": brute-force disagrees (brute-force 7, structural 6" in str(exc.value)


def test_one_route_is_refused():
    with pytest.raises(ValueError):
        crosscheck("x", 1, only=1)


def series(*values):
    return QSeries([0, *values])


@pytest.mark.parametrize("routes", [
    {"direct": series(1, F(1, 2), 3), "closed": series(1, F(1, 2), 3)},
    {"a": series(4, 0, -2), "b": series(4, 0, -2), "c": series(4, 0, -2)},
])
def test_series_agreed_returns_the_first(routes):
    assert crosscheck_series("x", **routes) is routes[next(iter(routes))]


@pytest.mark.parametrize("routes", [
    {"direct": series(1, 2, 3, 4), "closed": series(1, 2, F(7, 2), 5)},
    {"a": series(1, 2, 3, 4), "b": series(1, 2, 5, 4), "c": series(1, 2, 3, 9)},
    {"a": series(1, 2, 3, 4), "b": series(1, 2, 5, 4), "c": series(1, 2, 6, 4)},
])
def test_series_mismatch_raises_crosschecks_error_at_the_first_d(routes):
    # q^3 is the first coefficient the routes disagree on
    with pytest.raises(CrossCheckError) as expected:
        crosscheck("x", 3, **{route: s.coefficient(3) for route, s in routes.items()})
    with pytest.raises(CrossCheckError) as exc:
        crosscheck_series("x", **routes)
    assert str(exc.value) == str(expected.value)
    assert str(exc.value).startswith("x(d=3): ")


def test_series_of_one_route_or_two_orders_are_refused():
    with pytest.raises(ValueError):
        crosscheck_series("x", only=series(1))
    # routes that agree up to the shortest order name each route's order
    with pytest.raises(CrossCheckError) as exc:
        crosscheck_series("x", a=series(1), b=series(1, 2))
    assert str(exc.value) == (
        "x: routes agree to q^1 but end at different orders (a order 1, b order 2)")
    with pytest.raises(CrossCheckError) as exc:
        crosscheck_series("x", a=series(1, 2, 3), b=series(1, 2), c=series(1, 2, 3))
    assert str(exc.value) == ("x: routes agree to q^2 but end at different orders "
                              "(a order 3, b order 2, c order 3)")
    # and routes that differ below it raise at the first d where they differ
    with pytest.raises(CrossCheckError, match=r"^x\(d=1\): "):
        crosscheck_series("x", a=series(1, 2), b=series(5, 2, 3))
