"""The shared cross-check: agreed values, and which routes a failure names."""

from fractions import Fraction as F

import pytest

from delliptic.errors import CrossCheckError, crosscheck


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
