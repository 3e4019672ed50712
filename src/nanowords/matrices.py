"""Weighted matrices over the ring on a, a., their determinants, colorings.

Every non-empty nanoword yields a 2n x (2n+1) matrix over the group ring of
Psi, with two rows per letter relating consecutive unknowns x_0 ... x_2n;
beta-membership of the letter value decides which occurrence acts first.
From it come the sign-normalized determinant invariants nabla^+/- (over the
commutative quotient) and, specializing the ring action to Z/m through unit
functions p, p., exact counts of colorings with prescribed input and output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyNanoword, InvalidSpec
from .groups import (GroupRingElement, PsiAbElement, PsiElement, psi_abelianize)
from .intlinalg import ModularCounter, count_mod_prime
from .words import Alphabet, Nanoword


def _ring_of(alphabet, *terms) -> GroupRingElement:
    out = GroupRingElement.zero(alphabet)
    for g, c in terms:
        out = out + GroupRingElement.of(g, c)
    return out


class WeightedMatrix:
    """Matrix over the Psi group ring with an ordered pair of weights."""

    def __init__(self, alphabet: Alphabet, rows: int, cols: int,
                 entries: dict[tuple[int, int], GroupRingElement],
                 weights: tuple[GroupRingElement, GroupRingElement]):
        self.alphabet = alphabet
        self.rows = rows
        self.cols = cols
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        self.weights = weights

    def entry(self, i: int, j: int) -> GroupRingElement:
        return self.entries.get((i, j), GroupRingElement.zero(self.alphabet))


def is_tau_invariant(alphabet: Alphabet, beta) -> bool:
    beta = set(beta)
    return all(alphabet.tau(a) in beta for a in beta)


def weighted_matrix(w: Nanoword, beta) -> WeightedMatrix:
    """The letter-relation matrix with both weights r^w.

    Letters are numbered in canonical first-occurrence order; the matrix
    equivalence class does not depend on the numbering.
    """
    if not w.word:
        raise EmptyNanoword("the weighted matrix needs a non-empty nanoword")
    beta = set(beta)
    if not is_tau_invariant(w.alphabet, beta):
        raise InvalidSpec("beta must be tau-invariant")
    w = w.canonical()
    al = w.alphabet
    letters = w.letters
    n = len(letters)
    entries: dict[tuple[int, int], GroupRingElement] = {}

    def put(i, j, val):
        # adjacent occurrences make two prescribed entries share a column
        cur = entries.get((i, j))
        entries[(i, j)] = val if cur is None else cur + val

    one = PsiElement.identity(al)
    for k, x in enumerate(letters):
        i_a, j_a = w.occurrences(x)
        a = w.proj[x]
        g = PsiElement.generator(al, a)
        gb = PsiElement.generator(al, a, bullet=True)
        mixed = _ring_of(al, (one, 1), (g * gb, -1))  # 1 - a a.
        r1, r2 = 2 * k, 2 * k + 1
        if a in beta:
            put(r1, i_a - 1, GroupRingElement.of(g))
            put(r1, i_a, GroupRingElement.of(one, -1))
            put(r2, i_a - 1, mixed)
            put(r2, j_a - 1, GroupRingElement.of(gb))
            put(r2, j_a, GroupRingElement.of(one, -1))
        else:
            put(r1, j_a - 1, GroupRingElement.of(g))
            put(r1, j_a, GroupRingElement.of(one, -1))
            put(r2, i_a - 1, GroupRingElement.of(gb))
            put(r2, i_a, GroupRingElement.of(one, -1))
            put(r2, j_a - 1, mixed)

    weight = GroupRingElement.of(PsiAbElement.identity(al))
    for a in al.letters:
        if a in beta:
            continue
        count = sum(1 for x in letters if w.proj[x] == a)
        if count:
            unit = PsiAbElement.generator(al, a) * PsiAbElement.generator(al, a, bullet=True)
            weight = weight * GroupRingElement.of(unit ** (-count), (-1) ** count)
    return WeightedMatrix(al, 2 * n, 2 * n + 1, entries, (weight, weight))


def _abelian_matrix(m: WeightedMatrix, drop_col: int):
    """Entries pushed to the commutative quotient, one column removed."""
    cols = [j for j in range(m.cols) if j != drop_col]
    out = {}
    for (i, j), v in m.entries.items():
        if j == drop_col:
            continue
        out[(i, cols.index(j))] = v.map_terms(psi_abelianize)
    return out, m.rows


def _det(alphabet, entries: dict, size: int) -> GroupRingElement:
    """Cofactor expansion row by row, memoized on the remaining column set.

    The memo collapses shared minors, but the cost still grows exponentially
    with the size, so ``nabla`` calls it only on the few rows ``_eliminate``
    leaves without a unit; tests expand whole matrices with it as the oracle.
    """
    by_row: list[list[tuple[int, GroupRingElement]]] = [[] for _ in range(size)]
    for (i, j), v in entries.items():
        by_row[i].append((j, v))
    for row in by_row:
        row.sort()
    memo: dict = {}
    zero = GroupRingElement.zero(alphabet)
    one = GroupRingElement.of(PsiAbElement.identity(alphabet))

    def rec(row: int, cols: frozenset) -> GroupRingElement:
        if row == size:
            return one
        key = cols
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = zero
        alive = [(j, v) for j, v in by_row[row] if j in cols]
        for j, v in alive:
            sign = 1 if sum(1 for c in cols if c < j) % 2 == 0 else -1
            sub = rec(row + 1, cols - {j})
            if not sub.is_zero():
                total = total + (v * sub if sign > 0 else v * sub * -1)
        memo[key] = total
        return total

    det = rec(0, frozenset(range(size)))
    memo.clear()  # rec's closure is a reference cycle: free the minors now, not at the next gc
    return det


def _eliminate(alphabet, entries: dict, size: int) -> GroupRingElement:
    """Determinant by pivoting on unit monomials, least Markowitz fill first.

    A pivot u = +-g at position (i, j) of the remaining block contributes
    (-1)^(i+j) u; the Schur complement subtracts M[r][j] u^-1 M[i][c] with
    u^-1 = +-g^-1, so nothing is ever divided.  A row left empty gives 0; the
    block left when no entry is a unit goes to the cofactor expansion.
    """
    rows: list[dict] = [{} for _ in range(size)]
    cols: list[set] = [set() for _ in range(size)]
    for (i, j), v in entries.items():
        rows[i][j] = v
        cols[j].add(i)
    live_rows, live_cols = set(range(size)), set(range(size))
    scale, sign = PsiAbElement.identity(alphabet), 1
    while live_rows:
        best = None
        for i in live_rows:
            row = rows[i]
            if not row:
                return GroupRingElement.zero(alphabet)
            for j, v in row.items():
                if len(v.terms) == 1:
                    (g, c), = v.terms.items()
                    if c in (1, -1):
                        fill = (len(row) - 1) * (len(cols[j]) - 1)
                        if best is None or fill < best[0]:
                            best = (fill, i, j, g, c)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, i, j, g, c = best
        position = sum(1 for r in live_rows if r < i) + sum(1 for k in live_cols if k < j)
        scale = scale * g
        sign *= -c if position % 2 else c
        minus_inverse = GroupRingElement.of(g.inverse(), -c)
        pivot_row = rows[i]
        del pivot_row[j]
        cols[j].discard(i)
        for r in cols[j]:
            target = rows[r]
            factor = target.pop(j) * minus_inverse
            for k, v in pivot_row.items():
                new = factor * v
                if k in target:
                    new = target[k] + new
                if new.is_zero():  # Z[Psi^ab] has zero divisors, e.g. (1 - a a.)(1 + a a.)
                    target.pop(k, None)
                    cols[k].discard(r)
                else:
                    target[k] = new
                    cols[k].add(r)
        for k in pivot_row:
            cols[k].discard(i)
        live_rows.discard(i)
        live_cols.discard(j)
    det = GroupRingElement.of(scale, sign)
    if live_rows:
        row_at = {r: n for n, r in enumerate(sorted(live_rows))}
        col_at = {k: n for n, k in enumerate(sorted(live_cols))}
        block = {(row_at[r], col_at[k]): v for r in live_rows for k, v in rows[r].items()}
        det = det * _det(alphabet, block, len(row_at))
    return det


def nabla(w: Nanoword, beta, epsilon: str) -> GroupRingElement:
    """Sign-normalized determinant invariant over the commutative quotient.

    epsilon "+" drops the last column, "-" the first; the augmentation of
    the raw determinant is +-1 and fixes the sign, so aug(nabla) = 1.  The
    empty nanoword returns 1 (forced by multiplicativity).
    """
    if epsilon not in ("+", "-"):
        raise ValueError("epsilon is '+' or '-'")
    if not w.word:
        return GroupRingElement.of(PsiAbElement.identity(w.alphabet))
    m = weighted_matrix(w, beta)
    drop = m.cols - 1 if epsilon == "+" else 0
    entries, size = _abelian_matrix(m, drop)
    det = _eliminate(w.alphabet, entries, size)
    r = m.weights[0] if epsilon == "-" else m.weights[1]
    raw = r * det
    s = raw.aug()
    assert s in (1, -1), "augmentation of nabla must be a sign"
    return raw * s


# ---------------------------------------------------------------------------
# Colorings


@dataclass(frozen=True)
class ColoringSpec:
    """Z/m action data: tau-invariant beta and unit functions p, p. on alpha."""

    alphabet: Alphabet
    beta: frozenset
    modulus: int
    p: tuple[tuple[str, int], ...]
    p_bullet: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, alphabet, beta, modulus, p=None, p_bullet=None) -> "ColoringSpec":
        if modulus < 2:
            raise InvalidSpec("modulus must be >= 2")
        beta = frozenset(beta)
        if not is_tau_invariant(alphabet, beta):
            raise InvalidSpec("beta must be tau-invariant")
        p = dict(p) if p else {a: 1 for a in alphabet.letters}
        p_bullet = dict(p_bullet) if p_bullet else {a: 1 for a in alphabet.letters}
        for fn, name in ((p, "p"), (p_bullet, "p.")):
            for a in alphabet.letters:
                if a not in fn:
                    raise InvalidSpec(f"{name} undefined on {a!r}")
                fn[a] %= modulus
                if (fn[a] * fn[alphabet.tau(a)]) % modulus != 1:
                    raise InvalidSpec(f"{name}({a}) {name}(tau {a}) != 1 (mod {modulus})")
        return cls(alphabet, beta, modulus,
                   tuple(sorted(p.items())), tuple(sorted(p_bullet.items())))

    @classmethod
    def tricoloring(cls, alphabet, beta) -> "ColoringSpec":
        """m = 3 with a x = x and a. x = -x: the classical tricolorings."""
        return cls.make(alphabet, beta, 3,
                        {a: 1 for a in alphabet.letters},
                        {a: 2 for a in alphabet.letters})

    def key(self):
        return (tuple(sorted(self.beta)), self.modulus, self.p, self.p_bullet)


def _coloring_matrix(w: Nanoword, spec: ColoringSpec):
    """Integer rows of the homogeneous constraint system on x_0 .. x_2n."""
    n2 = len(w.word)
    p, pb = dict(spec.p), dict(spec.p_bullet)
    rows = []
    for x in w.letters:
        i_a, j_a = w.occurrences(x)
        a = w.proj[x]
        mixed = 1 - p[a] * pb[a]
        r1 = [0] * (n2 + 1)
        r2 = [0] * (n2 + 1)
        if a in spec.beta:
            r1[i_a - 1] += p[a]
            r1[i_a] -= 1
            r2[j_a - 1] += pb[a]
            r2[i_a - 1] += mixed
            r2[j_a] -= 1
        else:
            r1[i_a - 1] += pb[a]
            r1[j_a - 1] += mixed
            r1[i_a] -= 1
            r2[j_a - 1] += p[a]
            r2[j_a] -= 1
        rows.extend([r1, r2])
    return rows


def _count_pinned(w: Nanoword, spec: ColoringSpec, solver) -> list[list[int]]:
    """Counts indexed by (input k, output l): the constraint rows with the pins
    x_0 = k, x_2n = l appended.  ``solver(rows, m)`` returns a function from a
    right-hand side to its number of solutions mod m."""
    m = spec.modulus
    n2 = len(w.word)
    if n2 == 0:
        return [[1 if k == l else 0 for l in range(m)] for k in range(m)]
    rows = _coloring_matrix(w.canonical(), spec)
    count = solver(rows + [[1] + [0] * n2, [0] * n2 + [1]], m)
    zeros = [0] * len(rows)
    return [[count(zeros + [k, l]) for l in range(m)] for k in range(m)]


def count_colorings(w: Nanoword, spec: ColoringSpec) -> list[list[int]]:
    """Matrix of coloring counts indexed by (input k, output l) in (Z/m)^2.

    Counting runs through the Smith form over Z/m of the constraint rows with
    the two pins x_0 = k, x_2n = l appended; exact for every modulus.
    """
    return _count_pinned(w, spec, lambda full, m: ModularCounter(full, m).count)


def count_colorings_prime(w: Nanoword, spec: ColoringSpec) -> list[list[int]]:
    """Gaussian-elimination route, valid for prime modulus; cross-check path."""
    return _count_pinned(w, spec, lambda full, m: lambda rhs: count_mod_prime(full, rhs, m))


def count_colorings_bruteforce(w: Nanoword, spec: ColoringSpec) -> list[list[int]]:
    """Enumerate all functions f: {0..2n} -> Z/m; oracle for small instances."""
    m = spec.modulus
    n2 = len(w.word)
    out = [[0] * m for _ in range(m)]
    if n2 == 0:
        for k in range(m):
            out[k][k] = 1
        return out
    w = w.canonical()
    rows = _coloring_matrix(w, spec)
    total = m ** (n2 + 1)
    if total > 10 ** 6:
        raise ValueError("instance too large for brute force")
    for idx in range(total):
        f = []
        t = idx
        for _ in range(n2 + 1):
            f.append(t % m)
            t //= m
        if all(sum(c * f[i] for i, c in enumerate(row)) % m == 0 for row in rows):
            out[f[0]][f[n2]] += 1
    return out
