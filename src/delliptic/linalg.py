"""Exact linear solves: one fraction-free engine and a Fraction reference.

A `System` is a matrix made ready for exact solves against it: its rational
rows, each row's lcm scale to integers, and the factorisation of the scaled
rows. `_factorise` picks the pivot columns of an integer matrix (those not in
the span of earlier ones) and as many independent rows by fraction-free
(Bareiss) elimination, and inverts that block as B / delta. It eliminates
leading blocks of rows that double from the column count until one has
full column rank, which every fit basis has in its first few rows: the
plan is the one elimination over all rows gives, and the residual still
reads every row.
`System.solve(numerators, scale)` takes the right-hand side as integers over
one positive scale, as a `QSeries` holds it, multiplies each by its row's
scale, and accepts X = B t only if the integer residual holds on every row;
`System.solve_series` does so at every q^d of right-hand side series at once.

A System is built once by the code that owns its matrix and kept there:
`chow` keeps one per class system (space, degree, profile labels), and
`quasimodular` one per fit basis (max_weight, order), each in an lru_cache
keyed by those names, which the registry's read-only tables keep valid.
`solve_unique` takes a System or plain rows, which it makes into a System
for that one solve. `solve_any`, Fraction Gauss-Jordan with "first nonzero
entry" pivots, is the tests' reference.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .series import QSeries, _over_common_denominator

__all__ = [
    "SingularSystemError",
    "InconsistentSystemError",
    "System",
    "solve_unique",
    "require_unique",
    "solve_any",
]


class SingularSystemError(ValueError):
    """The system does not determine every unknown (rank deficiency)."""


class InconsistentSystemError(ValueError):
    """The system has no solution."""


@dataclass(frozen=True)
class _Factorisation:
    """An integer matrix A with its pivot columns, as many independent rows,
    and the inverse of A[pivot_rows][pivots] held as inverse / delta. Of A
    itself it keeps every row restricted to the pivot columns, all the
    residual reads, and the column count."""

    on_pivots: tuple[tuple[int, ...], ...]
    columns: int
    pivots: tuple[int, ...]
    pivot_rows: tuple[int, ...]
    inverse: tuple[tuple[int, ...], ...]
    delta: int


def _factorise(rows: Sequence[Sequence[int]]) -> _Factorisation:
    """Bareiss elimination on a copy of the leading rows, columns left to
    right.

    A column with no nonzero entry below the current rank is in the span of
    the earlier ones and is skipped, so the pivots are the columns
    `solve_any` picks; the rows that supplied them are independent on
    those columns. Every division is exact (Sylvester's identity).

    The leading block starts at the column count and doubles until every
    column gets a pivot in it, or it holds every row. A step changes a row
    only through itself and the pivot row, so a block of full column rank
    finds each pivot where elimination over all rows would: the plan is the
    one all rows give, and its residual still reads every row.
    """
    columns = len(rows[0])
    block = max(columns, 1)
    while True:
        work = [list(row) for row in rows[:block]]
        origin = list(range(len(work)))
        pivots: list[int] = []
        previous = 1
        for col in range(columns):
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
                for c in range(col + 1, columns):
                    row[c] = (p * row[c] - a * top[c]) // previous
                row[col] = 0
            previous = p
            pivots.append(col)
        if len(pivots) == columns or block >= len(rows):
            break
        block *= 2
    pivot_rows = tuple(origin[: len(pivots)])
    on_pivots = tuple(tuple(row[c] for c in pivots) for row in rows)
    inverse, delta = _integer_inverse([list(on_pivots[r]) for r in pivot_rows])
    return _Factorisation(on_pivots, columns, tuple(pivots), pivot_rows, inverse, delta)


def _integer_inverse(square: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(B, delta) with square^-1 = B / delta, B integral and delta > 0, by
    fraction-free Gauss-Jordan elimination of [square | I]."""
    n = len(square)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(square)]
    previous = 1
    for k in range(n):
        found = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[found] = aug[found], aug[k]
        top = aug[k]
        p = top[k]
        for i, row in enumerate(aug):
            if i != k:
                a = row[k]
                aug[i] = [(p * x - a * y) // previous for x, y in zip(row, top)]
        previous = p
    # every diagonal entry is now `previous`, which is +-det(square)
    sign = 1 if previous > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in aug), sign * previous


def _every_row_holds(plan: _Factorisation, x: Sequence[int], rhs: Sequence[int]) -> bool:
    """sum_k A[d][pivots[k]] x[k] == rhs[d] on every row d."""
    return all(sum(map(mul, row, x)) == b for row, b in zip(plan.on_pivots, rhs))


def _eliminate(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Row-reduce the augmented system; returns (rows, pivot_cols, consistent)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [[Fraction(x) for x in matrix[r]] + [Fraction(rhs[r])] for r in range(m)]
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        p = aug[row][col]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col] / p
                for c in range(col, n + 1):
                    aug[r][c] -= factor * aug[row][c]
        pivot_cols.append(col)
        row += 1
    consistent = all(aug[r][n] == 0 for r in range(row, m))
    return aug, pivot_cols, consistent


class System:
    """The matrix `rows` made ready for exact solves: its rows as tuples
    (`len` and indexing read them), each row's lcm scale to integers
    (`scales`, None when every entry is an int), and the factorisation of
    the scaled rows (`plan`). No rows raise ValueError."""

    __slots__ = ("rows", "scales", "plan")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        self.rows = tuple(map(tuple, rows))
        if not self.rows:
            raise ValueError("a System needs at least one row")
        # integer rows (a fit basis) are their own scaled rows, and a
        # right-hand side then enters unscaled
        if all(type(v) is int for row in self.rows for v in row):
            integer_rows, self.scales = self.rows, None
        else:
            integer_rows, self.scales = zip(*map(_over_common_denominator, self.rows))
        self.plan = _factorise(integer_rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, r: int) -> tuple[Fraction, ...]:
        return self.rows[r]

    def solve(self, numerators: Sequence[int], scale: int) -> list[Fraction] | None:
        """The solution of A x = target, target[d] = numerators[d] / scale,
        with non-pivot unknowns 0, or None when there is none: the same
        answer as `solve_any`, in integers."""
        plan = self.plan
        scaled = numerators if self.scales is None else list(map(mul, self.scales, numerators))
        picked = [scaled[r] for r in plan.pivot_rows]
        x = [sum(b * t for b, t in zip(row, picked)) for row in plan.inverse]
        if not _every_row_holds(plan, x, [plan.delta * t for t in scaled]):
            return None
        solution = [Fraction(0)] * plan.columns
        for col, v in zip(plan.pivots, x):
            solution[col] = Fraction(v, plan.delta * scale)
        return solution

    def solve_series(self, series: Sequence[QSeries]) -> list[QSeries] | None:
        """`solve` at every q^d at once (series[r] is row r's right-hand side):
        one series per column, truncated to the smallest order, or None."""
        plan = self.plan
        scaled = series if self.scales is None else list(map(mul, series, self.scales))
        zero = QSeries.zero(min(s.order for s in scaled))

        def combine(row: Sequence[int], terms: Sequence[QSeries]) -> QSeries:
            return sum((t * c for c, t in zip(row, terms) if c), zero)

        x = [combine(row, [scaled[r] for r in plan.pivot_rows]) for row in plan.inverse]
        if any(combine(row, x) != zero + plan.delta * t for row, t in zip(plan.on_pivots, scaled)):
            return None
        solution = dict(zip(plan.pivots, x))
        return [solution.get(col, zero) * Fraction(1, plan.delta) for col in range(plan.columns)]


def require_unique(system: System, solution: list | None) -> list:
    """A solution that exists (or InconsistentSystemError) and is unique (or
    SingularSystemError), as `system` returned it."""
    if solution is None:
        raise InconsistentSystemError("system has no exact solution")
    rank, columns = len(system.plan.pivots), system.plan.columns
    if rank < columns:
        raise SingularSystemError(f"system determines only {rank} of {columns} unknowns")
    return solution


def solve_unique(
    matrix: Sequence[Sequence[Fraction]] | System, rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve an m x n system that must have exactly one solution; `matrix`
    is a sequence of rows or a System.

    Raises InconsistentSystemError when no solution exists and
    SingularSystemError when the solution is not unique; a right-hand side
    whose length is not the row count raises ValueError.
    """
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(matrix)} equations but {len(rhs)} right-hand sides")
    if not matrix:
        return []
    system = matrix if isinstance(matrix, System) else System(matrix)
    return require_unique(system, system.solve(*_over_common_denominator(rhs)))


def solve_any(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution with free variables set to 0, or None if inconsistent;
    a right-hand side whose length is not the row count raises ValueError."""
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(matrix)} equations but {len(rhs)} right-hand sides")
    n = len(matrix[0]) if matrix else 0
    aug, pivot_cols, consistent = _eliminate(matrix, rhs)
    if not consistent:
        return None
    solution = [Fraction(0)] * n  # free variables (if any) are set to 0
    for i, col in enumerate(pivot_cols):
        solution[col] = aug[i][n] / aug[i][col]
    return solution
