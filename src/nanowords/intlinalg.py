"""Exact integer linear algebra: Smith normal form, Z-solving, mod-m counting.

Everything works on plain lists of Python ints; matrix sizes here stay far
below the point where asymptotics matter, and exactness is non-negotiable.
The Smith form keeps the left transform U (with D = U A V) because solution
counting needs to push right-hand sides through it; library normal forms
that discard the transforms are useless for that.  Counting mod m computes
the form over Z/m, since over Z the coefficients of U blow up.
"""

from __future__ import annotations

from math import gcd

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: Matrix, modulus: int | None = None) -> tuple[Matrix, Matrix, Matrix]:
    """Return (d, u, v) with d = u a v, u and v unimodular, d diagonal.

    With ``modulus`` m every entry of d, u and v is kept reduced mod m and the
    identity holds mod m.  Z/m is a principal ideal ring and the operations
    stay invertible mod m; the pivot is the least nonzero residue and each
    Euclid step leaves a smaller remainder, so the loop still ends, and no
    coefficient grows past m.  Without it the form is exact over Z.

    No divisibility chain is enforced on the diagonal; counting and solving
    below only need diagonality.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if modulus is None:
        def red(x):
            return x
    else:
        def red(x):
            return x % modulus
    d = [[red(x) for x in row] for row in a]
    u = _identity(rows)
    v = _identity(cols)

    def row_op(i, j, q):  # row i -= q * row j
        d[i] = [red(x - q * y) for x, y in zip(d[i], d[j])]
        u[i] = [red(x - q * y) for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for r in range(rows):
            d[r][i] = red(d[r][i] - q * d[r][j])
        for r in range(cols):
            v[r][i] = red(v[r][i] - q * v[r][j])

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    k = 0
    while k < min(rows, cols):
        # find a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(k, pi)
        swap_cols(k, pj)
        while True:
            dirty = False
            for i in range(k + 1, rows):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    row_op(i, k, q)
                    if d[i][k]:
                        swap_rows(k, i)
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
    return d, u, v


def solve_integer(a: Matrix, b: list[int]) -> bool:
    """Does a x = b have an integer solution x?"""
    rows = len(a)
    if rows == 0:
        return not any(b)
    cols = len(a[0])
    if cols == 0:
        return not any(b)
    d, u, _v = smith_normal_form(a)
    c = [sum(u[i][j] * b[j] for j in range(rows)) for i in range(rows)]
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if c[i] != 0:
                return False
        elif c[i] % di:
            return False
    return True


class ModularCounter:
    """Counts solutions of a x = b (mod m) for many right-hand sides b.

    The Smith form of ``a`` over Z/m is computed once; each count is then a
    product over the diagonal of gcd contributions.
    """

    def __init__(self, a: Matrix, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.rows = len(a)
        self.cols = len(a[0]) if self.rows else 0
        if self.rows:
            self.d, self.u, _ = smith_normal_form(a, m)
        else:
            self.d, self.u = [], []

    def count(self, b: list[int]) -> int:
        m = self.m
        if self.rows == 0:
            return m ** self.cols
        c = [sum(self.u[i][j] * b[j] for j in range(self.rows)) % m for i in range(self.rows)]
        total = 1
        for i in range(self.rows):
            di = (self.d[i][i] if i < self.cols else 0) % m
            g = gcd(di, m)
            if c[i] % g:
                return 0
            if i < self.cols:
                total *= g
        if self.cols > self.rows:
            total *= m ** (self.cols - self.rows)
        return total


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
