"""Exact linear solves: one fraction-free engine.

A `System` is a matrix made ready for exact solves against it: its rational
rows, each row's lcm scale to integers, and the factorisation of the scaled
rows. `_factorise` picks the pivot columns of an integer matrix (those not in
the span of earlier ones) and as many independent rows by one fraction-free
(Bareiss) elimination, and keeps the pivot block B as it leaves it: U on and
above the diagonal, the last pivot delta, and each step's multiplier below.
It eliminates leading blocks of rows that double from the column count until
one has full column rank, which every fit basis has in its first few rows:
the plan is the one elimination over all rows gives, and the residual still
reads every row.
`System.solve(numerators, scale)` takes the right-hand side as integers over
one positive scale, as a `QSeries` holds it, multiplies each by its row's
scale, applies the kept steps to it and back-substitutes X = delta x through
U (every division exact), divides X and delta by their gcd, and accepts X
only if the integer residual holds on every row.
`System.solve_series` runs the same two kernels, `_back_substitute` and
`_every_row_holds`, on one int per right-hand side series: its value at X =
2^(8w) (Kronecker substitution, as in `series`), a ring homomorphism that
keeps every exact division exact. The width w bounds the unknowns and the
residual, so a packed residual is 0 only where every coefficient is.

A System is built once by the code that owns its matrix and kept there:
`chow` keeps one per class system (space, degree, profile labels), and
`quasimodular` one per fit basis (max_weight, order), each in an lru_cache
keyed by those names, which the registry's read-only tables keep valid.
`solve_unique` and `solve_any` take a System or plain rows, which they
make into a System for that one solve, and return its `solve` of the
right-hand side over that side's common denominator: `solve_unique`
requires it to exist and be unique, `solve_any` returns it as it is.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul

from .series import QSeries, _over_common_denominator, _pack, _unpack

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
    and in `block` the pivot block B = A[pivot_rows][pivots] as one Bareiss
    elimination leaves it: row j holds the multipliers m_jk of its steps
    k < j left of the diagonal and U[j][j:] from it on, so block[j][j] is the
    j-th pivot p_j and `delta`, the last one, is +-det B. Of A itself it
    keeps every row on the pivot columns, all the residual reads, and the
    column count."""

    on_pivots: tuple[tuple[int, ...], ...]
    columns: int
    pivots: tuple[int, ...]
    pivot_rows: tuple[int, ...]
    block: tuple[tuple[int, ...], ...]
    delta: int


def _factorise(rows: Sequence[Sequence[int]]) -> _Factorisation:
    """Bareiss elimination on a copy of the leading rows, columns left to
    right, its pivot block kept as the elimination leaves it.

    A column with no nonzero entry below the current rank is in the span of
    the earlier ones and is skipped, so the pivots are the columns outside
    that span, as any exact elimination finds them; the rows that supplied
    them are independent on those columns. Every division is exact
    (Sylvester's identity).

    The leading block starts at the column count and doubles until every
    column gets a pivot in it, or it holds every row. A step changes a row
    only through itself and the pivot row, so a block of full column rank
    finds each pivot where elimination over all rows would: the plan is the
    one all rows give, and its residual still reads every row.

    Each step leaves its multiplier in the pivot column of the rows it
    changes (where elimination would write 0), and later steps only change
    columns right of their own pivot, so pivot row j ends holding its
    multipliers left of the diagonal and U[j] from it on: the kept block.
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
            previous = p
            pivots.append(col)
        if len(pivots) == columns or block >= len(rows):
            break
        block *= 2
    # `previous` is now the last pivot, delta (1 with no pivot)
    kept = tuple(tuple(work[j][c] for c in pivots) for j in range(len(pivots)))
    return _Factorisation(tuple(tuple(row[c] for c in pivots) for row in rows), columns,
                          tuple(pivots), tuple(origin[: len(pivots)]), kept, previous)


def _back_substitute(plan: _Factorisation, picked: Sequence[int]) -> list[int]:
    """X = delta x for the solution x of B x = picked on the pivot block.
    The kept steps turn picked into t, t_j <- (p_k t_j - m_jk t_k) / p_{k-1}
    for k < j, as they turned B into U; U X = delta t is then solved from
    the last row up, every division exact (Sylvester's identity, Cramer).
    X fills from the end, so row j of the block meets 0 up to its diagonal."""
    block, delta = plan.block, plan.delta
    t, previous = list(picked), 1
    for k, top in enumerate(block):
        p, tk = top[k], t[k]
        for j in range(k + 1, len(t)):
            t[j] = (p * t[j] - block[j][k] * tk) // previous
        previous = p
    X = [0] * len(t)
    for j in reversed(range(len(t))):
        X[j] = (delta * t[j] - sum(map(mul, block[j], X))) // block[j][j]
    return X


def _every_row_holds(plan: _Factorisation, x: Sequence[int], rhs: Sequence[int]) -> bool:
    """sum_k A[d][pivots[k]] x[k] == rhs[d] on every row d."""
    return all(sum(map(mul, row, x)) == b for row, b in zip(plan.on_pivots, rhs))


class System:
    """The matrix `rows` made ready for exact solves: its rows as tuples
    (`len` and indexing read them), each row's lcm scale to integers
    (`scales`, None when every entry is an int), and the factorisation of
    the scaled rows (`plan`). No rows, or a row whose length is not row 0's,
    raise ValueError."""

    __slots__ = ("rows", "scales", "plan")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        self.rows = tuple(map(tuple, rows))
        if not self.rows:
            raise ValueError("a System needs at least one row")
        columns = len(self.rows[0])
        for r, row in enumerate(self.rows):
            if len(row) != columns:
                raise ValueError(f"row {r} has {len(row)} entries but row 0 has {columns}")
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
        with non-pivot unknowns 0, or None when there is none, in integers.
        X = delta x comes from the factor and is put in lowest terms with
        delta before the residual."""
        plan = self.plan
        scaled = numerators if self.scales is None else list(map(mul, self.scales, numerators))
        X = _back_substitute(plan, [scaled[r] for r in plan.pivot_rows])
        content = gcd(plan.delta, *X)
        delta = plan.delta // content
        X = [v // content for v in X]
        if not _every_row_holds(plan, X, [delta * t for t in scaled]):
            return None
        solution = [Fraction(0)] * plan.columns
        denominator = delta * scale
        for col, v in zip(plan.pivots, X):
            solution[col] = Fraction(v, denominator)
        return solution

    def solve_series(self, series: Sequence[QSeries]) -> list[QSeries] | None:
        """`solve` at every q^d of right-hand side series at once (series[r]
        is row r's right-hand side): one series per column, truncated to the
        smallest order, or None. `solve`'s algebra on one int per series:
        its coefficients over one lcm L of the denominators, times its row's
        scale, packed at X = 2^(8w) (series._pack); the X_j back-substituted
        from them are unpacked and X_j / (delta L) put in lowest terms.

        The width: X = +-adj(B) picked, so |X_j[d]| <= k H S, for k pivots,
        H the Hadamard bound of the pivot block B (it bounds delta and every
        minor), S the largest scaled coefficient. A residual coefficient
        sum_k A[r][k] X_k[d] - delta rhs_r[d] is at most (k M + 1) H S, M the
        largest row sum of |A|. With 2^(8w - 1) above that, each X_j unpacks
        exactly, and a packed residual is 0 only if every coefficient is."""
        plan = self.plan
        order = min(s.order for s in series)
        common = lcm(*(s.denominator for s in series))
        scales = self.scales or (1,) * len(series)
        scaled = [[v * (scale * common // s.denominator) for v in s.numerators[: order + 1]]
                  for s, scale in zip(series, scales)]
        hadamard = isqrt(prod(sum(v * v for v in plan.on_pivots[r]) for r in plan.pivot_rows)) + 1
        row_sum = max(sum(map(abs, row)) for row in plan.on_pivots)
        largest = max(abs(v) for column in scaled for v in column)
        width = ((len(plan.pivots) * row_sum + 1) * hadamard * largest).bit_length() // 8 + 1
        packed = [_pack(column, width) for column in scaled]
        X = _back_substitute(plan, [packed[r] for r in plan.pivot_rows])
        if not _every_row_holds(plan, X, [plan.delta * t for t in packed]):
            return None
        sign, zero = (-1 if plan.delta < 0 else 1), QSeries.zero(order)
        solution = {col: QSeries._reduced([sign * v for v in _unpack(x, order + 1, width)],
                                          sign * plan.delta * common)
                    for col, x in zip(plan.pivots, X)}
        return [solution.get(col, zero) for col in range(plan.columns)]


def require_unique(system: System, solution: list | None) -> list:
    """A solution that exists (or InconsistentSystemError) and is unique (or
    SingularSystemError), as `system` returned it."""
    if solution is None:
        raise InconsistentSystemError("system has no exact solution")
    rank, columns = len(system.plan.pivots), system.plan.columns
    if rank < columns:
        raise SingularSystemError(f"system determines only {rank} of {columns} unknowns")
    return solution


def _solved(
    matrix: Sequence[Sequence[Fraction]] | System, rhs: Sequence[Fraction]
) -> tuple[System | None, list[Fraction] | None]:
    """The System of `matrix` (rows are made into one) and its `solve` of
    rhs over rhs's common denominator; (None, []) for no rows. A right-hand
    side whose length is not the row count raises ValueError."""
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(matrix)} equations but {len(rhs)} right-hand sides")
    if not matrix:
        return None, []
    system = matrix if isinstance(matrix, System) else System(matrix)
    return system, system.solve(*_over_common_denominator(rhs))


def solve_unique(
    matrix: Sequence[Sequence[Fraction]] | System, rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve an m x n system that must have exactly one solution; `matrix`
    is a sequence of rows or a System.

    Raises InconsistentSystemError when no solution exists and
    SingularSystemError when the solution is not unique; a right-hand side
    whose length is not the row count raises ValueError.
    """
    system, solution = _solved(matrix, rhs)
    return solution if system is None else require_unique(system, solution)


def solve_any(
    matrix: Sequence[Sequence[Fraction]] | System, rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """One exact solution, `System.solve`'s, with free variables set to 0,
    or None if inconsistent; a right-hand side whose length is not the row
    count raises ValueError."""
    return _solved(matrix, rhs)[1]
