"""Exact elimination: unique solves, rank deficiency, inconsistency."""

import random
from fractions import Fraction as F

import pytest

from delliptic.linalg import (
    InconsistentSystemError,
    SingularSystemError,
    solve_any,
    solve_unique,
)


def test_round_trip_random_systems():
    rng = random.Random(808)
    solved = 0
    while solved < 25:
        n = rng.randint(1, 5)
        matrix = [
            [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        x = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        rhs = [sum(matrix[i][j] * x[j] for j in range(n)) for i in range(n)]
        try:
            assert solve_unique(matrix, rhs) == x
        except SingularSystemError:
            continue  # randomly degenerate matrix; resample
        solved += 1


def test_singular_square_system():
    matrix = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(SingularSystemError):
        solve_unique(matrix, [F(3), F(6)])


def test_inconsistent_square_system():
    matrix = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(InconsistentSystemError):
        solve_unique(matrix, [F(3), F(7)])


def test_overdetermined_consistent():
    matrix = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert solve_unique(matrix, [F(2), F(3), F(5)]) == [F(2), F(3)]


def test_overdetermined_inconsistent():
    matrix = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    with pytest.raises(InconsistentSystemError):
        solve_unique(matrix, [F(2), F(3), F(6)])


def test_solve_any_underdetermined():
    matrix = [[F(1), F(1), F(0)]]
    solution = solve_any(matrix, [F(4)])
    assert solution is not None
    assert sum(m * s for m, s in zip(matrix[0], solution)) == 4
    # free variables come back as zero
    assert solution == [F(4), F(0), F(0)]


def test_solve_any_inconsistent_returns_none():
    matrix = [[F(1), F(1)], [F(2), F(2)]]
    assert solve_any(matrix, [F(1), F(3)]) is None


def test_empty_system():
    assert solve_unique([], []) == []
