"""Exact elimination: unique solves, rank deficiency, inconsistency."""

import gc
import random
import weakref
from fractions import Fraction as F
from math import gcd

import pytest

from delliptic import linalg, loci, quasimodular
from delliptic.divisors import sigma_series
from delliptic.linalg import (
    InconsistentSystemError,
    SingularSystemError,
    System,
    _factorise,
    solve_any,
    solve_unique,
)
from delliptic.quasimodular import (
    NotQuasimodular,
    QuasimodularFit,
    fit_quasimodular,
    quasimodular_basis,
)
from delliptic.series import QSeries, _over_common_denominator, _pack
from reference import fraction_solve_any


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
        expected = fraction_solve_any(matrix, rhs)
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
    assert solve_any([], []) == []


def test_solve_any_is_the_fraction_reference():
    """Seeded wide, square and tall systems, integer or rational rows, rank
    deficient or not, consistent or not: `solve_any` returns exactly the
    Fraction reference's solution, free variables 0, or None with it."""
    rng = random.Random(3737)
    outcomes = set()
    for _ in range(200):
        columns = rng.randint(1, 5)
        height = rng.randint(1, columns + 3)
        rows = [[rng.randint(-6, 6) * rng.choice((0, 1, 1, 2)) for _ in range(columns)]
                for _ in range(height)]
        if rng.random() < 0.5:
            rows = [[F(v, rng.randint(1, 6)) for v in row] for row in rows]
        x = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(columns)]
        consistent = [sum(a * v for a, v in zip(row, x)) for row in rows]
        noise = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in rows]
        for rhs in (consistent, noise):
            want = fraction_solve_any(rows, rhs)
            assert solve_any(rows, rhs) == want
            outcomes.add((height < columns, want is None))
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}


@pytest.mark.parametrize("rows,r,length", [
    ([[F(1)], [F(1), F(5)]], 1, 2),  # a longer row: its last entry would go unread
    ([[F(1), F(5)], [F(1)]], 1, 1),  # a shorter row
    ([[1, 2], [3, 4], [5, 6, 7]], 2, 3),  # integer rows, the last one long
    ([[1, 2], [3], [4, 5, 6]], 1, 1),  # two ragged rows: the first is named
], ids=["longer", "shorter", "integer-rows", "two-ragged"])
def test_ragged_rows_refused_naming_the_row(rows, r, length):
    message = f"^row {r} has {length} entries but row 0 has {len(rows[0])}$"
    with pytest.raises(ValueError, match=message):
        System(rows)
    rhs = [F(1)] * len(rows)
    for solve in (solve_unique, solve_any):
        with pytest.raises(ValueError, match=message):
            solve(rows, rhs)


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


def test_bool_entry_makes_a_row_rational():
    # a bool is no int to the integer-row test: the rows get scales, and
    # solve as the int matrix does
    system = System([[True, 2], [3, 4], [False, 1]])
    assert system.scales == (1, 1, 1)
    integer = System([[1, 2], [3, 4], [0, 1]])
    assert integer.scales is None
    for rhs in ([F(5), F(11), F(2)], [F(5, 2), F(11, 2), F(1)], [F(5), F(11), F(3)]):
        assert solve_any(system, rhs) == solve_any(integer, rhs) == fraction_solve_any(
            [[1, 2], [3, 4], [0, 1]], rhs)


def test_pivot_view_is_the_held_rows_at_full_column_rank():
    """An integer System of full column rank keeps its own row tuples as the
    pivot view (`is`); a rank-deficient one the per-row pick of its pivot
    columns, as elimination over all rows gives it."""
    systems = [quasimodular._fit_plan(8, 150)[1]]
    systems += [System(rows) for rows in _matrices_whose_block_grows(200, 4141)]
    full = deficient = 0
    for system in systems:
        plan = system.plan
        assert system.scales is None and len(plan.on_pivots) == len(system)
        if len(plan.pivots) == plan.columns:
            full += 1
            assert all(view is row for view, row in zip(plan.on_pivots, system.rows))
        else:
            deficient += 1
            assert_factorises_as_over_all_rows(plan, system.rows)
    assert full >= 50 and deficient >= 50


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


def test_solve_series_over_unequal_orders_and_denominators():
    # right-hand sides of orders 4..12 over different lcms: the solution is
    # cut to the smallest order, a change past it is ignored and one at it
    # refused on a tall system, each coefficient as the reference gives it
    rng = random.Random(3232)
    outcomes, mixed = set(), 0
    for name, rows in SERIES_SYSTEMS.items():
        system = System(rows)
        matrix = [[F(v) for v in row] for row in system.rows]
        for _ in range(20):
            unknowns = [_random_series(rng, 12) for _ in range(system.plan.columns)]
            series = [s.truncate(rng.randint(4, 12))
                      for s in _right_hand_sides(system, unknowns)]
            order = min(s.order for s in series)
            mixed += len({s.denominator for s in series}) > 1
            r, d = rng.randrange(len(series)), rng.choice((order, order + 1))
            if d <= series[r].order:
                series[r] = series[r] + QSeries.from_function(
                    series[r].order, lambda k: F(1, 5) if k == d else 0)
            want = [fraction_solve_any(matrix, [s.coefficient(k) for s in series])
                    for k in range(order + 1)]
            solution = system.solve_series(series)
            if None in want:
                assert solution is None
            else:
                assert all(s.order == order for s in solution)
                assert _coefficients(solution) == [list(c) for c in zip(*want)]
            outcomes.add((name, solution is None))
    assert outcomes == {(name, False) for name in SERIES_SYSTEMS} | {
        ("fit-basis", True), ("overdetermined", True)}
    assert mixed >= 50


def test_solve_series_width_covers_the_residual():
    """The packing's edge case: x = y = 2^15 at q^0 and 0 at q^1 leave the
    residual 256 x + 256 y - rhs = 2^24 - q on the last row, inconsistent,
    but 0 at X = 2^24. Digits of 3 bytes hold every unknown (H S = 2^16 for
    the Hadamard bound H = 2 the kernel uses), so the width must come from
    the residual bound (k M + 1) H S as well, or the system is accepted."""
    rows = [[1, 0], [0, 1], [256, 256]]
    rhs = [QSeries([2**15, 0]), QSeries([2**15, 0]), QSeries([0, 1])]
    matrix = [[F(v) for v in row] for row in rows]
    assert fraction_solve_any(matrix, [s.coefficient(0) for s in rhs]) is None
    system = System(rows)
    plan = system.plan
    assert plan.delta == 1 and system.scales is None
    packed = [_pack(s.numerators, 3) for s in rhs]
    assert linalg._every_row_holds(plan, packed[:2], packed)
    assert system.solve_series(rhs) is None


SHAPES = {  # right-hand sides of System([[1, 0], [0, 1], [1, 1]]), 3 rows
    "short": [1, 2],  # row 2 would go unread
    "short-of-a-pivot-row": [1],  # pivot row 1 would raise IndexError
    "long": [1, 2, 3, 4],  # the last entry would be ignored
    "empty": [],
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("method", ["solve", "solve_series"])
def test_rhs_length_checked_by_both_methods(method, shape):
    system = System([[1, 0], [0, 1], [1, 1]])
    rhs = SHAPES[shape]
    with pytest.raises(ValueError, match=f"^3 equations but {len(rhs)} right-hand sides$"):
        if method == "solve":
            system.solve(rhs, 1)
        else:
            system.solve_series([QSeries([v]) for v in rhs])
    assert system.solve([1, 2, 3], 1) == [1, 2]
    assert system.solve_series([QSeries([v]) for v in (1, 2, 3)]) == [QSeries([1]), QSeries([2])]


@pytest.mark.parametrize("rows,numerators,width", [
    # |A| bounds X's share: the bound |X| + |delta| |b| = 32 gives w = 1;
    # 16 |X| + |b| = 272 needs w = 2, and so does one byte less than that
    ([[1], [16], [0]], [16, 0, 1], 1),
    # delta = 3 bounds b's share: M |X| + |b| = 104 gives w = 1, while
    # M |X| + 3 |b| = 264 needs w = 2
    ([[3], [2], [1]], [8, -80, 3], 1),
], ids=["row-sum-factor", "delta-factor"])
def test_solve_width_covers_the_residual(rows, numerators, width):
    """Residuals +2^(8w) on one row and -1 on the next pack to 0 at width w:
    a width from the bound less the term under test accepts an
    inconsistent system, the one from M max|X| + |delta| max|b| refuses it."""
    assert fraction_solve_any([[F(v) for v in row] for row in rows], numerators) is None
    system = System(rows)
    plan = system.plan
    X = linalg._back_substitute(plan, [numerators[r] for r in plan.pivot_rows])
    residual = [sum(a * v for a, v in zip(row, X)) - plan.delta * b
                for row, b in zip(plan.on_pivots, numerators)]
    assert residual == [0, 2 ** (8 * width), -1]
    assert sum(r << (8 * width * d) for d, r in enumerate(residual)) == 0
    assert not linalg._every_row_holds(plan, X, [plan.delta * b for b in numerators])
    assert system.solve(numerators, 1) is None


def test_zero_rhs_against_entries_above_a_byte():
    # a pairing-tables check: X = 0 and b = 0 bound no residual, but the
    # packed columns must still hold every entry of A: M = 255 < 2^8 takes
    # digits of 2 bytes, as 200 is no signed byte
    rows = [[200, 55], [1, 127], [100, -100]]
    assert System(rows).plan.row_sum == 255
    assert System(rows).solve([0, 0, 0], 1) == [0, 0]
    assert solve_unique(rows, [0, 0, 0]) == [0, 0]


def test_packed_residual_is_every_row():
    """Seeded tall systems, int or rational rows, a right-hand side
    consistent or bumped at one row, the last one included: the packed
    residual `solve` reads agrees with the residual read row by row."""
    rng = random.Random(4040)
    seen = set()
    for case in range(300):
        columns = rng.randint(1, 5)
        height = columns + rng.randint(1, 6)
        rows = [[rng.randint(-300, 300) * rng.choice((0, 1, 1)) for _ in range(columns)]
                for _ in range(height)]
        if case % 2:
            rows = [[F(v, rng.randint(1, 9)) for v in row] for row in rows]
        system = System(rows)
        x = [F(rng.randint(-999, 999), rng.randint(1, 9)) for _ in range(columns)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        bumped = rng.choice((None, height - 1, rng.randrange(height)))
        if bumped is not None:
            rhs[bumped] += rng.choice((1, -1)) * F(rng.choice((1, 2 ** (8 * rng.randint(1, 4)))),
                                                   rng.randint(1, 9))
        numerators, scale = _over_common_denominator(rhs)
        scaled = numerators if system.scales is None else [
            s * v for s, v in zip(system.scales, numerators)]
        plan = system.plan
        X = linalg._back_substitute(plan, [scaled[r] for r in plan.pivot_rows])
        content = gcd(plan.delta, *X)
        delta, X = plan.delta // content, [v // content for v in X]
        holds = linalg._packed_rows_hold(system, X, delta, scaled)
        assert holds == linalg._every_row_holds(plan, X, [delta * b for b in scaled])
        assert holds == (system.solve(numerators, scale) is not None)
        seen.add((holds, bumped == height - 1, case % 2))
    assert {(False, True, 0), (False, True, 1), (True, False, 0), (True, False, 1)} <= seen
    assert {(False, False, 0), (False, False, 1)} <= seen


def test_system_is_freed_with_its_packed_columns():
    # the packed columns live on the System: nothing else keeps it alive
    system = System([[1, 0], [0, 1], [1, 1]])
    assert system.solve([1, 2, 3], 1) == [1, 2]
    assert system.packed[1]
    freed = weakref.ref(system)
    del system
    gc.collect()
    assert freed() is None


@pytest.mark.parametrize("solve", [
    lambda: sigma_series({(0, 1): 0.5}, 3),
    lambda: solve_unique([[F(1)]], [0.5]),
    lambda: solve_any([[F(1)]], [0.5]),
    lambda: System([[0.5, 1]]),
], ids=["sigma_series", "solve_unique", "solve_any", "System"])
def test_float_refused_naming_it(solve):
    with pytest.raises(TypeError, match=r"^coefficients must be int or Fraction, got 0\.5$"):
        solve()


def _factorise_over_all_rows(rows):
    """The reference plan: Bareiss elimination over every row, as (pivots,
    pivot rows, the pivot block it leaves, delta), which `_factorise` must
    find. Row j of the block holds the multipliers of the steps that changed
    it left of the diagonal and the eliminated row U[j][j:] from it on."""
    work = [list(row) for row in rows]
    origin = list(range(len(work)))
    pivots = []
    previous = 1
    for col in range(len(rows[0])):
        rank = len(pivots)
        found = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if found is None:
            continue
        work[rank], work[found] = work[found], work[rank]
        origin[rank], origin[found] = origin[found], origin[rank]
        top = work[rank]
        p = top[col]
        for row in work[rank + 1:]:
            a = row[col]
            for c in range(col + 1, len(row)):
                row[c] = (p * row[c] - a * top[c]) // previous
        previous = p
        pivots.append(col)
    block = tuple(tuple(work[j][c] for c in pivots) for j in range(len(pivots)))
    return tuple(pivots), tuple(origin[: len(pivots)]), block, previous


def assert_factorises_as_over_all_rows(plan, rows):
    """`plan` has the reference's pivots, pivot rows, kept block and delta,
    keeps every row on the pivot columns, and solving against each pivot
    column k of the pivot block B returns delta times the k-th unit vector
    (B being invertible, that is B x = B e_k read through the kept steps)."""
    pivots, pivot_rows, block, delta = _factorise_over_all_rows(rows)
    assert (plan.pivots, plan.pivot_rows, plan.block, plan.delta) == (
        pivots, pivot_rows, block, delta)
    assert plan.columns == len(rows[0])
    assert plan.on_pivots == tuple(tuple(row[c] for c in pivots) for row in rows)
    assert plan.delta == (plan.block[-1][-1] if plan.block else 1)
    for k, col in enumerate(pivots):
        unit = [delta * (j == k) for j in range(len(pivots))]
        assert linalg._back_substitute(plan, [rows[r][col] for r in pivot_rows]) == unit


def _basis_rows(max_weight, order):
    basis = quasimodular_basis(max_weight, order)
    return [tuple(row) for row in zip(*(s.numerators for _, s in basis))]


@pytest.mark.parametrize("max_weight", range(2, 17, 2))
def test_fit_bases_factorise_as_over_all_rows(max_weight):
    size = len(quasimodular_basis(max_weight, 200))
    for order in sorted({size, 60, 200}):
        rows = _basis_rows(max_weight, order)
        assert_factorises_as_over_all_rows(_factorise(rows), rows)


def test_class_systems_factorise_as_over_all_rows(plant):
    built = []

    def recorded(original):
        class Recorded(original):
            def __init__(self, rows):
                super().__init__(rows)
                built.append(self)
        return Recorded

    plant(linalg.System, change=recorded)
    for family in loci.FAMILIES:
        loci.class_series(family, 8)
    # one class System per family, and the M12 one the m21 profile reads
    assert len(built) == len(loci.FAMILIES) + 1
    for system in built:
        rows = [_over_common_denominator(row)[0] for row in system.rows]
        assert_factorises_as_over_all_rows(system.plan, rows)


def _matrices_whose_block_grows(count, seed):
    """Seeded integer matrices, tall and mostly of deficient leading rows:
    zero or dependent leading rows, columns in the span of earlier ones, or
    sparse entries."""
    rng = random.Random(seed)
    for i in range(count):
        columns = rng.randint(1, 6)
        height = rng.randint(columns, 5 * columns + 4)
        rows = [[rng.randint(-9, 9) for _ in range(columns)] for _ in range(height)]
        kind = i % 4
        if kind == 0:  # zero leading rows
            for r in range(rng.randint(1, height)):
                rows[r] = [0] * columns
        elif kind == 1:  # leading rows multiples of the first
            for r in range(1, rng.randint(1, height)):
                rows[r] = [rng.randint(-3, 3) * x for x in rows[0]]
        elif kind == 2:  # a column in the span of earlier ones: rank-deficient
            c = rng.randrange(columns)
            for row in rows:
                row[c] = sum(rng.randint(-2, 2) * x for x in row[:c])
        else:  # sparse
            rows = [[x if rng.random() < 0.25 else 0 for x in row] for row in rows]
        yield rows


def test_random_matrices_factorise_as_over_all_rows():
    grown = stopped_early = 0
    for rows in _matrices_whose_block_grows(400, 3030):
        assert_factorises_as_over_all_rows(_factorise(rows), rows)
        columns = len(rows[0])
        if len(_factorise_over_all_rows(rows[:columns])[0]) < columns:
            grown += 1
            # a doubled block, still short of every row, of full column rank
            stopped_early += any(
                len(_factorise_over_all_rows(rows[:block])[0]) == columns
                for block in (columns << k for k in range(1, len(rows).bit_length()))
                if block < len(rows))
    # the block grows in most cases, and some stop short of every row
    assert grown >= 200 and stopped_early >= 50


def test_fit_refuses_a_change_past_the_block():
    # the weight-8 basis has full column rank in its leading 11 rows; a
    # change at q^150 alone is still refused by the residual
    basis = quasimodular_basis(8, 150)
    planted = sum((F(k + 1, 3) * s for k, (_, s) in enumerate(basis)), QSeries.zero(150))
    assert isinstance(fit_quasimodular(planted, 8, 150), QuasimodularFit)
    changed = planted + QSeries.from_function(150, lambda d: int(d == 150))
    assert fit_quasimodular(changed, 8, 150) == NotQuasimodular(8, 150)
    assert len(_factorise_over_all_rows(_basis_rows(8, 150)[:len(basis)])[0]) == len(basis)


def test_solves_in_lowest_terms_match_the_reference():
    """Seeded square and tall systems, many with a negative delta (the
    pivot block's determinant after its row swaps) or with X = delta x
    sharing a factor with delta: `solve` and `solve_series` return exactly
    the Fraction reference's Fractions, consistent or not."""
    rng = random.Random(3131)
    negative = swapped_negative = content = 0
    for _ in range(300):
        columns = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) * rng.choice((0, 1, 1, 2, 3)) for _ in range(columns)]
                for _ in range(columns + rng.randint(0, 3))]
        system = System(rows)
        plan = system.plan
        matrix = [[F(v) for v in row] for row in rows]
        x = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(columns)]
        consistent = [sum(a * v for a, v in zip(row, x)) for row in matrix]
        noise = [F(rng.randint(-9, 9)) for _ in rows]
        for rhs in (consistent, noise):
            numerators, scale = _over_common_denominator(rhs)
            assert system.solve(numerators, scale) == fraction_solve_any(matrix, rhs)
        numerators, _ = _over_common_denominator(consistent)
        X = linalg._back_substitute(plan, [numerators[r] for r in plan.pivot_rows])
        negative += plan.delta < 0
        swapped_negative += plan.delta < 0 and plan.pivot_rows != tuple(sorted(plan.pivot_rows))
        content += gcd(plan.delta, *X) > 1
        unknowns = [_random_series(rng, 3) for _ in range(columns)]
        series = _right_hand_sides(system, unknowns)
        want = [fraction_solve_any(matrix, [s.coefficient(d) for s in series])
                for d in range(4)]
        assert _coefficients(system.solve_series(series)) == [list(c) for c in zip(*want)]
    assert negative >= 100 and swapped_negative >= 20 and content >= 100
