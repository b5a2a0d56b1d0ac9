"""Exact elimination: unique solves, rank deficiency, inconsistency."""

import random
from fractions import Fraction as F

import pytest

from delliptic.linalg import (
    BlockRows,
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


def test_rhs_with_mixed_denominators_matches_reference():
    # the right-hand side enters over its own common denominator, times the
    # row scales of the matrix; square and overdetermined, consistent or not
    # (this seed draws no singular matrix)
    rng = random.Random(1212)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        matrix = [
            [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(n + rng.randint(0, 2))
        ]
        x = [F(rng.randint(-9, 9), rng.randint(1, 11)) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in matrix]
        if rng.random() < 0.3:
            rhs[-1] += F(1, rng.randint(2, 13))
        if len({v.denominator for v in rhs}) < 2:
            continue
        expected = solve_any(matrix, rhs)
        try:
            assert solve_unique(matrix, rhs) == expected
            outcomes.add("unique")
        except InconsistentSystemError:
            assert expected is None
            outcomes.add("inconsistent")
    assert outcomes == {"unique", "inconsistent"}


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


@pytest.mark.parametrize("solve", [solve_unique, solve_any])
@pytest.mark.parametrize(
    "matrix,rhs",
    [
        ([[F(1)], [F(2)]], [F(2)]),  # short: one row would go unread
        ([[F(1)]], [F(2), F(3)]),  # long: one value would go unread
        ([], [F(1)]),  # checked before the empty system returns
    ],
)
def test_rhs_length_must_match_rows(solve, matrix, rhs):
    with pytest.raises(ValueError, match="equations but"):
        solve(matrix, rhs)


def test_block_rows_read_rows_or_columns():
    block = ((F(1), F(2)), (F(0), F(1, 3)))
    assert list(BlockRows(block, (1, 0), False)) == [block[1], block[0]]
    assert list(BlockRows(block, (1,), True)) == [(F(2), F(1, 3))]
    # x + 2y = 5, y/3 = 1
    assert solve_unique(BlockRows(block, (0, 1), False), [F(5), F(1)]) == [F(-1), F(3)]


def test_block_rows_need_an_immutable_block():
    # a factorisation cached by the block's identity must not outlive a
    # change of its values
    with pytest.raises(TypeError, match="tuple of row tuples"):
        solve_unique(BlockRows([(F(1),)], (0,), False), [F(1)])
    with pytest.raises(TypeError, match="tuple of row tuples"):
        solve_unique(BlockRows(([F(1)],), (0,), False), [F(1)])


def test_a_replaced_block_gets_its_own_factorisation():
    # the factorisation is found again by the block's identity: a changed
    # copy of a block whose factorisation is cached is factorised afresh
    block = ((F(1), F(2)), (F(0), F(1, 3)))
    changed = ((F(1), F(2)), (F(0), F(1, 2)))
    assert solve_unique(BlockRows(block, (0, 1), False), [F(5), F(1)]) == [F(-1), F(3)]
    assert solve_unique(BlockRows(changed, (0, 1), False), [F(5), F(1)]) == [F(1), F(2)]
