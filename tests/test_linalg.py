"""Exact elimination: unique solves, rank deficiency, inconsistency."""

import random
from fractions import Fraction as F

import pytest

from delliptic.linalg import (
    InconsistentSystemError,
    SingularSystemError,
    System,
    solve_any,
    solve_unique,
)
from delliptic.quasimodular import quasimodular_basis
from delliptic.series import QSeries, _over_common_denominator


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


def test_system_reads_back_its_rows():
    matrix = [[F(1), F(2)], [F(0), F(1, 3)]]
    system = System(matrix)
    assert len(system) == 2
    assert system[1] == (F(0), F(1, 3))
    assert list(system) == [(F(1), F(2)), (F(0), F(1, 3))]
    assert system.scales == (1, 3)


@pytest.mark.parametrize(
    "matrix,rhs,outcome",
    [
        ([[F(1), F(2)], [F(0), F(1, 3)]], [F(5), F(1)], None),  # x + 2y = 5, y/3 = 1
        ([[F(1, 2), F(1)], [F(1), F(2)]], [F(3), F(6)], SingularSystemError),
        ([[F(1, 2), F(1)], [F(1), F(2)]], [F(3), F(7)], InconsistentSystemError),
    ],
)
def test_system_solves_as_its_rows(matrix, rhs, outcome):
    if outcome is None:
        assert solve_unique(System(matrix), rhs) == solve_unique(matrix, rhs) == [F(-1), F(3)]
        return
    for solved in (System(matrix), matrix):
        with pytest.raises(outcome):
            solve_unique(solved, rhs)


def _random_series(rng, order):
    return QSeries([F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(order + 1)])


def _right_hand_sides(system, unknowns):
    """Row r's right-hand side series, sum_c A[r][c] unknowns[c]."""
    return [sum((x * a for a, x in zip(row, unknowns)), QSeries.zero(unknowns[0].order))
            for row in system.rows]


def _solved_per_coefficient(system, series):
    """System.solve at each q^d, as columns of coefficients, or None."""
    order = series[0].order
    per_d = [system.solve(*_over_common_denominator([s.coefficient(d) for s in series]))
             for d in range(order + 1)]
    return None if None in per_d else [list(column) for column in zip(*per_d)]


def _coefficients(solution):
    return None if solution is None else [list(s.coefficients) for s in solution]


#: rational rows (with scales), an integer fit basis (columns in the span of
#: earlier ones included), and an overdetermined consistent system
SERIES_SYSTEMS = {
    "rational": [[F(1), F(2)], [F(0), F(1, 3)]],
    "fit-basis": list(zip(*(s.numerators for _, s in quasimodular_basis(6, 12)))),
    "overdetermined": [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
}


@pytest.mark.parametrize("name", SERIES_SYSTEMS)
def test_solve_series_is_solve_at_every_coefficient(name):
    rng = random.Random(2727)
    system = System(SERIES_SYSTEMS[name])
    assert (system.scales is None) == (name == "fit-basis")
    for _ in range(5):
        unknowns = [_random_series(rng, 9) for _ in range(system.plan.columns)]
        series = _right_hand_sides(system, unknowns)
        solution = system.solve_series(series)
        assert solution is not None
        assert all(isinstance(s, QSeries) and s.order == 9 for s in solution)
        assert _coefficients(solution) == _solved_per_coefficient(system, series)


@pytest.mark.parametrize("name", ["fit-basis", "overdetermined"])
def test_solve_series_refuses_one_inconsistent_coefficient(name):
    rng = random.Random(2828)
    system = System(SERIES_SYSTEMS[name])
    unknowns = [_random_series(rng, 9) for _ in range(system.plan.columns)]
    series = _right_hand_sides(system, unknowns)
    series[-1] = series[-1] + QSeries.from_function(9, lambda d: F(1, 7) if d == 6 else 0)
    assert system.solve_series(series) is None
    assert _solved_per_coefficient(system, series) is None
    # only that coefficient breaks: the truncation below it still solves
    assert system.solve_series([s.truncate(5) for s in series]) is not None
