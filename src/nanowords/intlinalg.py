"""Exact integer linear algebra: Smith normal form, Z-solving, mod-m counting.

Everything works on plain lists of Python ints; matrix sizes here stay far
below the point where asymptotics matter, and exactness is non-negotiable.
A system a x = b is reduced as the augmented matrix [a | b]: row operations
carry the right-hand-side columns along, while column operations and swaps
act on the unknowns only.  The reduced system d y = b' then has the same
solvability as a x = b and, mod m, as many solutions.  Every right-hand side
a caller needs is known before the reduction starts, so no transform is
kept (Kannan and Bachem reduce the augmented matrix the same way).  Counting
mod m reduces over Z/m, where no coefficient grows past m, and first solves
every unknown it can on a unit pivot (``unit_pivots``), so the Smith form
sees only the block that has no unit left.
"""

from __future__ import annotations

from math import gcd, prod

Matrix = list[list[int]]


def smith_normal_form(a: Matrix, unknowns: int, modulus: int | None = None) -> Matrix:
    """Reduce the augmented matrix ``a``, whose first ``unknowns`` columns are
    the unknowns' and whose other columns are right-hand sides.

    Returns the reduced matrix: its unknowns' block is diagonal, and each
    right-hand side has been through every row operation.  With ``modulus``
    m every entry is kept reduced mod m.  Z/m is a principal ideal ring and
    the operations stay invertible mod m; the pivot is the least nonzero
    residue and each Euclid step leaves a smaller remainder, so the loop
    still ends.  Without it the form is exact over Z.

    No divisibility chain is enforced on the diagonal; counting and solving
    below only need diagonality.
    """
    rows, cols = len(a), unknowns
    red = (lambda x: x) if modulus is None else (lambda x: x % modulus)
    d = [[red(x) for x in row] for row in a]

    def row_op(i, j, q):  # row i -= q * row j, right-hand sides included
        d[i] = [red(x - q * y) for x, y in zip(d[i], d[j])]

    def col_op(i, j, q):  # unknown i -= q * unknown j
        for r in range(rows):
            d[r][i] = red(d[r][i] - q * d[r][j])

    def swap_cols(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]

    k = 0
    while k < min(rows, cols):
        # a pivot of minimal absolute value in the trailing block, first by row
        nonzero = [(abs(d[i][j]), i, j)
                   for i in range(k, rows) for j in range(k, cols) if d[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        d[k], d[pi] = d[pi], d[k]
        swap_cols(k, pj)
        while True:
            dirty = False
            for i in range(k + 1, rows):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    row_op(i, k, q)
                    if d[i][k]:
                        d[k], d[i] = d[i], d[k]
                        dirty = True
            for j in range(k + 1, cols):
                if d[k][j]:
                    q = d[k][j] // d[k][k]
                    col_op(j, k, q)
                    if d[k][j]:
                        swap_cols(k, j)
                        dirty = True
            if not dirty:
                break
        k += 1
    return d


def unit_pivots(rows: list, pivotal, minus_inverse, reduce) -> list[tuple]:
    """Sparse elimination of ``rows`` (``{column: entry}``) on unit pivots.

    Only columns in ``pivotal`` may pivot.  ``minus_inverse(v)`` is -v^-1
    for a unit v and None otherwise; ``reduce(x)`` is the normal form of x,
    None for zero.  Among the unit entries, the least Markowitz fill
    (r-1)(c-1) goes first.  Pivot (i, j, v) solves column j from row i,
    subtracts that from every other row and leaves ``rows[i]`` None, so the
    rows still there form the Schur complement.  Returns the pivots in order.
    """
    cols: dict = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    live, pivots = set(range(len(rows))), []
    while True:
        best = None
        for i in live:
            row = rows[i]
            rest = len(row) - 1
            for j, v in row.items():
                if j in pivotal:
                    fill = rest * (len(cols[j]) - 1)
                    if (best is None or fill < best[0]) and (inv := minus_inverse(v)) is not None:
                        best = (fill, i, j, v, inv)
            if best is not None and best[0] == 0:
                break
        if best is None:
            return pivots
        _, i, j, v, inv = best
        pivots.append((i, j, v))
        pivot_row, rows[i] = rows[i], None
        live.discard(i)
        del pivot_row[j]
        for r in cols.pop(j) - {i}:
            target = rows[r]
            factor = target.pop(j) * inv
            for k, x in pivot_row.items():
                new = reduce(target[k] + factor * x if k in target else factor * x)
                if new is None:
                    target.pop(k, None)
                    cols[k].discard(r)
                else:
                    target[k] = new
                    cols[k].add(r)
        for k in pivot_row:
            cols[k].discard(i)


def solve_integer(a: Matrix, b: list[int]) -> bool:
    """Does a x = b have an integer solution x?

    Reduces [a | b]: row i with a nonzero pivot d_i needs d_i | b'_i, and
    every other row needs b'_i = 0.
    """
    cols = len(a[0]) if a else 0
    d = smith_normal_form([row + [x] for row, x in zip(a, b)], cols)
    return all(row[cols] % row[i] == 0 if i < cols and row[i] else row[cols] == 0
               for i, row in enumerate(d))


class ModularCounter:
    """Counts solutions of a x = sum_t c[t] rhs[t] (mod m) for many c.

    ``rhs`` is a list of columns, one entry per row of ``a``.  Unit pivots
    mod m solve one unknown from one row each and carry the right-hand
    sides, which changes no count; the Smith form over Z/m of the block left
    is computed once.  Row i of it, with pivot d_i (0 past the diagonal),
    admits c iff gcd(d_i, m) divides its carried combination; the count of a
    consistent c is the same product of gcds over the unknowns left, where
    an unknown in no row left has d = 0 and counts m.
    """

    def __init__(self, a: Matrix, m: int, rhs: Matrix):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        n = len(a[0]) if a else 0
        rows = [{j: x % m for j, x in enumerate(row + [col[i] for col in rhs]) if x % m}
                for i, row in enumerate(a)]
        pivots = unit_pivots(rows, range(n),
                             lambda v: -pow(v, -1, m) % m if gcd(v, m) == 1 else None,
                             lambda x: x % m or None)
        left = [row for row in rows if row]
        used = sorted({j for row in left for j in row if j < n})
        k = len(used)
        d = smith_normal_form([[row.get(j, 0) for j in used + [*range(n, n + len(rhs))]]
                               for row in left], k, m)
        diagonal = [d[i][i] if i < len(d) else 0 for i in range(k)]
        diagonal += [0] * (n - len(pivots) - k)  # unknowns in no row left
        self.solutions = prod(gcd(x, m) for x in diagonal)
        self.rows = [(gcd(diagonal[i] if i < k else 0, m), row[k:]) for i, row in enumerate(d)]

    def count(self, c: list[int]) -> int:
        for g, carried in self.rows:
            if sum(x * y for x, y in zip(carried, c)) % g:
                return 0
        return self.solutions


def count_mod_prime(a: Matrix, b: list[int], p: int) -> int:
    """Solution count of a x = b (mod p) by Gaussian elimination, p prime.

    Independent of the Smith-form route; the two must agree.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[x % p for x in row] + [b[i] % p] for i, row in enumerate(a)]
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if aug[r][col] % p), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][col], -1, p)
        aug[rank] = [(x * inv) % p for x in aug[rank]]
        for r in range(rows):
            if r != rank and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[rank])]
        rank += 1
        if rank == rows:
            break
    for r in range(rank, rows):
        if aug[r][cols] % p:
            return 0
    return p ** (cols - rank)
