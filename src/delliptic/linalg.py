"""Exact linear solves: one fraction-free engine and a Fraction reference.

`_factorise` picks the pivot columns of an integer matrix (those not in the
span of earlier ones) and as many independent rows by fraction-free (Bareiss)
elimination, and inverts that block as B / delta. `_solve(plan, numerators,
scale)` takes the right-hand side as integers over one positive scale, as a
`QSeries` holds it, and accepts X = B t only if the integer residual holds on
every row. `solve_unique` scales each row of its matrix to integers and
factorises the scaled rows; its right-hand side enters as integers
over their common denominator, each times its row's scale; `quasimodular`
fits hand `_solve` their target's numerators directly. `solve_any`, Fraction
Gauss-Jordan with "first nonzero entry" pivots, is the tests' reference.

A `BlockRows` (the rows a class solve reads off a registered, immutable
pairing block) is factorised once: the factorisation is found again by the
block object's identity and the row order, through an lru_cache that holds
the block, so no id can be reused while the entry lives, and a replaced
block is a new object with a new factorisation. A plain matrix, which may be
a fresh list on every call, is factorised on each solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .series import _over_common_denominator

__all__ = [
    "SingularSystemError",
    "InconsistentSystemError",
    "BlockRows",
    "solve_unique",
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
    """Bareiss elimination on a copy of `rows`, columns left to right.

    A column with no nonzero entry below the current rank is in the span of
    the earlier ones and is skipped, so the pivots are the columns
    `solve_any` picks; the rows that supplied them are independent on
    those columns. Every division is exact (Sylvester's identity).
    """
    work = [list(row) for row in rows]
    origin = list(range(len(work)))
    pivots: list[int] = []
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
            row[col] = 0
        previous = p
        pivots.append(col)
    pivot_rows = tuple(origin[: len(pivots)])
    on_pivots = tuple(tuple(row[c] for c in pivots) for row in rows)
    inverse, delta = _integer_inverse([list(on_pivots[r]) for r in pivot_rows])
    return _Factorisation(on_pivots, len(rows[0]), tuple(pivots), pivot_rows, inverse, delta)


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


def _solve(
    plan: _Factorisation, scaled: Sequence[int], scale: int
) -> list[Fraction] | None:
    """The solution of A x = target, target[d] = scaled[d] / scale, with
    non-pivot unknowns 0, or None when there is none: the same answer as
    `solve_any`, in integers."""
    picked = [scaled[r] for r in plan.pivot_rows]
    x = [sum(b * t for b, t in zip(row, picked)) for row in plan.inverse]
    if not _every_row_holds(plan, x, [plan.delta * t for t in scaled]):
        return None
    solution = [Fraction(0)] * plan.columns
    for col, v in zip(plan.pivots, x):
        solution[col] = Fraction(v, plan.delta * scale)
    return solution


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


class BlockRows(Sequence):
    """The matrix whose row r is row order[r] of `block`, or its column
    order[r] when `by_column`; `block` must be a tuple of row tuples, so that
    its identity fixes its values. Two are equal, and hash alike, when they
    read the same block object in the same way."""

    __slots__ = ("block", "order", "by_column")

    def __init__(
        self, block: tuple[tuple[Fraction, ...], ...], order: tuple[int, ...], by_column: bool
    ):
        self.block, self.order, self.by_column = block, order, by_column

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, r: int) -> tuple[Fraction, ...]:
        i = self.order[r]
        return tuple(row[i] for row in self.block) if self.by_column else tuple(self.block[i])

    def __hash__(self) -> int:
        return hash((id(self.block), self.order, self.by_column))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BlockRows)
            and self.block is other.block
            and (self.order, self.by_column) == (other.order, other.by_column)
        )


def _scaled_factorisation(matrix: tuple[tuple[Fraction, ...], ...]):
    """The lcm scaling each row of `matrix` to integers, and the factorisation
    of the scaled rows."""
    rows, scales = zip(*map(_over_common_denominator, matrix))
    return scales, _factorise(rows)


@lru_cache(maxsize=None)
def _block_factorisation(rows: BlockRows):
    """_scaled_factorisation of `rows`, cached by its block's identity and its
    row order; the cache holds `rows`, and with it the block. A block that
    could change in place raises TypeError."""
    if not (isinstance(rows.block, tuple) and all(isinstance(r, tuple) for r in rows.block)):
        raise TypeError("a BlockRows block must be a tuple of row tuples")
    return _scaled_factorisation(tuple(rows))


def solve_unique(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve an m x n system that must have exactly one solution; `matrix`
    is a sequence of rows or a BlockRows.

    Raises InconsistentSystemError when no solution exists and
    SingularSystemError when the solution is not unique; a right-hand side
    whose length is not the row count raises ValueError.
    """
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(matrix)} equations but {len(rhs)} right-hand sides")
    if not matrix:
        return []
    if isinstance(matrix, BlockRows):
        scales, plan = _block_factorisation(matrix)
    else:
        scales, plan = _scaled_factorisation(tuple(map(tuple, matrix)))
    numerators, scale = _over_common_denominator(rhs)
    solution = _solve(plan, list(map(mul, scales, numerators)), scale)
    if solution is None:
        raise InconsistentSystemError("system has no exact solution")
    if len(plan.pivots) < len(solution):
        raise SingularSystemError(
            f"system determines only {len(plan.pivots)} of {len(solution)} unknowns"
        )
    return solution


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
