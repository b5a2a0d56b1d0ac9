"""The tests' reference for exact solves: Fraction Gauss-Jordan elimination.

It shares no code with `delliptic.linalg`: every row is reduced in
Fractions, pivots are the first nonzero entry of each column, and free
variables are set to 0. The package's one elimination (`linalg.System`,
fraction-free Bareiss) must return exactly these Fractions, consistent or
not, and refuse exactly where this returns None.
"""

from collections.abc import Sequence
from fractions import Fraction


def fraction_eliminate(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
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


def fraction_solve_any(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """One exact solution with free variables set to 0, or None if inconsistent;
    a right-hand side whose length is not the row count raises ValueError."""
    if len(rhs) != len(matrix):
        raise ValueError(f"{len(matrix)} equations but {len(rhs)} right-hand sides")
    n = len(matrix[0]) if matrix else 0
    aug, pivot_cols, consistent = fraction_eliminate(matrix, rhs)
    if not consistent:
        return None
    solution = [Fraction(0)] * n  # free variables (if any) are set to 0
    for i, col in enumerate(pivot_cols):
        solution[col] = aug[i][n] / aug[i][col]
    return solution
