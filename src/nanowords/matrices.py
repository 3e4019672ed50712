"""Weighted matrices over the ring on a, a., their determinants, colorings.

Every non-empty nanoword yields 2n relations on the unknowns x_0 ... x_2n,
two per letter; beta-membership of the letter value decides which occurrence
acts first.  The rows are written once, over any ring that holds images of
a and a.: over the group ring of Psi they form the weighted matrix, over the
commutative quotient Psi^ab they give the sign-normalized determinant
invariants nabla^+/- directly, and their specialization a -> p(a),
a. -> p.(a) in Z/m gives exact counts of colorings with prescribed input and
output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetMismatch, EmptyNanoword, InvalidSpec, UnknownSymbol
from .groups import GroupRingElement, PsiAbElement, PsiElement
from .intlinalg import ModularCounter, count_mod_prime, unit_pivots
from .words import Alphabet, Nanoword


class WeightedMatrix:
    """Matrix over the Psi group ring with its weight r^w."""

    def __init__(self, alphabet: Alphabet, rows: int, cols: int,
                 entries: dict[tuple[int, int], GroupRingElement],
                 weight: GroupRingElement):
        self.alphabet = alphabet
        self.rows = rows
        self.cols = cols
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        self.weight = weight

    def entry(self, i: int, j: int) -> GroupRingElement:
        return self.entries.get((i, j), GroupRingElement.zero(self.alphabet))


def check_beta(alphabet: Alphabet, beta) -> None:
    """Raise ``UnknownSymbol`` on the least letter of ``beta`` outside the
    alphabet, else ``InvalidSpec`` unless ``beta`` is tau-invariant."""
    beta = set(beta)
    unknown = sorted(beta - set(alphabet.letters))
    if unknown:
        raise UnknownSymbol(f"{unknown[0]!r} is not an alphabet letter")
    if any(alphabet.tau(a) not in beta for a in beta):
        raise InvalidSpec("beta must be tau-invariant")


def _relation_rows(w: Nanoword, beta, units, one) -> list[dict]:
    """The 2n letter relations on x_0 .. x_2n as rows ``{column: entry}``.

    ``units(a)`` gives the images of a and a. in the target ring and ``one``
    is its unit.  Entries keep the order they are written in; adjacent
    occurrences make two of them share a column, where they add up.
    """
    check_beta(w.alphabet, beta)
    minus_one = -one
    rows = []
    for x in w.letters:
        i, j = w.occurrences(x)
        a = w.proj[x]
        g, gb = units(a)
        mixed = one - g * gb
        if a in beta:
            first = ((i - 1, g), (i, minus_one))
            second = ((i - 1, mixed), (j - 1, gb), (j, minus_one))
        else:
            first = ((j - 1, g), (j, minus_one))
            second = ((i - 1, gb), (i, minus_one), (j - 1, mixed))
        for written in (first, second):
            row: dict = {}
            for col, v in written:
                row[col] = row[col] + v if col in row else v
            rows.append(row)
    return rows


def _weight(w: Nanoword, beta) -> GroupRingElement:
    """r^w over Psi^ab: a factor -(a a.)^-1 for each letter valued outside beta."""
    al = w.alphabet
    unit, sign = PsiAbElement.identity(al), 1
    for x in w.letters:
        a = w.proj[x]
        if a not in beta:
            unit = unit * PsiAbElement.generator(al, a) * PsiAbElement.generator(al, a, bullet=True)
            sign = -sign
    return GroupRingElement.of(unit.inverse(), sign)


def _entries(w: Nanoword, beta, group) -> dict:
    """The relation rows over the ring of ``group`` (Psi or Psi^ab) as
    ``{(row, column): entry}``."""
    al = w.alphabet
    rows = _relation_rows(
        w, beta, lambda a: (GroupRingElement.of(group.generator(al, a)),
                            GroupRingElement.of(group.generator(al, a, bullet=True))),
        GroupRingElement.of(group.identity(al)))
    return {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}


def weighted_matrix(w: Nanoword, beta) -> WeightedMatrix:
    """The letter-relation matrix over the Psi group ring, with its weight.

    Letter k (in first-occurrence order) owns rows 2k and 2k + 1; the matrix
    equivalence class does not depend on the numbering.
    """
    if not w.word:
        raise EmptyNanoword("the weighted matrix needs a non-empty nanoword")
    size = len(w.word)
    return WeightedMatrix(w.alphabet, size, size + 1, _entries(w, beta, PsiElement),
                          _weight(w, beta))


# ---------------------------------------------------------------------------
# nabla


def _det(entries: dict, size: int, one, columns=None):
    """Cofactor expansion over rows 0 .. size - 1 and ``columns`` (default
    0 .. size - 1), row by row, memoized on the remaining column set.

    The entries may lie in any commutative ring whose elements add, subtract
    and multiply; ``one`` is its unit.  The memo collapses shared minors, but
    the cost still grows exponentially with the size, so ``nabla`` calls it
    only on the few rows ``_eliminate`` leaves without a unit; tests expand
    whole matrices over the group ring with it as the oracle.
    """
    by_row: list[list[tuple[int, object]]] = [[] for _ in range(size)]
    for (i, j), v in entries.items():
        by_row[i].append((j, v))
    for row in by_row:
        row.sort()
    memo: dict = {}
    zero = one - one

    def rec(row: int, cols: frozenset):
        if row == size:
            return one
        key = cols
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = zero
        alive = [(j, v) for j, v in by_row[row] if j in cols]
        for j, v in alive:
            sub = v * rec(row + 1, cols - {j})
            total = total + sub if sum(1 for c in cols if c < j) % 2 == 0 else total - sub
        memo[key] = total
        return total

    det = rec(0, frozenset(range(size) if columns is None else columns))
    memo.clear()  # rec's closure is a reference cycle: free the minors now, not at the next gc
    return det


def _minus_inverse(v: GroupRingElement) -> GroupRingElement | None:
    """-v^-1 for a unit monomial v = +-g, None for any other entry."""
    if len(v.terms) == 1:
        (g, c), = v.items()
        if c in (1, -1):
            return GroupRingElement.of(g.inverse(), -c)
    return None


def _eliminate(entries: dict, size: int, scale: GroupRingElement) -> dict:
    """Both maximal minors of the size x (size + 1) matrix ``entries`` over
    Z[Psi^ab], times ``scale``: "+" drops the last column, "-" the first.

    ``unit_pivots`` pivots on unit monomials u = +-g in the interior columns
    1 .. size - 1.  The Schur complement subtracts M[r][j] u^-1 M[i][c] with
    u^-1 = +-g^-1, so nothing is divided, and column by column it is the
    Schur complement of both square matrices at once.  A pivot at position
    (i, j) of the remaining block contributes (-1)^(i+j) u to "+"; without
    the first column it sits one place further left, so the two signs differ
    by (-1)^(number of pivots).  A row left empty makes both minors 0; the
    k x (k + 1) block left when no interior entry is a unit goes to the
    cofactor expansion, once per minor.
    """
    rows: list = [{} for _ in range(size)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    pivots = unit_pivots(rows, range(1, size), _minus_inverse,
                         lambda x: x if x.terms else None)
    live_rows = [r for r in range(size) if rows[r] is not None]
    if not all(rows[r] for r in live_rows):
        zero = GroupRingElement.zero(scale.alphabet)
        return {"+": zero, "-": zero}
    for t, (i, j, unit) in enumerate(pivots):  # (i, j) in the block left by the pivots before
        position = i + j - sum((r < i) + (k < j) for r, k, _ in pivots[:t])
        scale = scale * (-unit if position % 2 else unit)
    col_at = {k: n for n, k in enumerate(sorted(set(range(size + 1)) - {j for _, j, _ in pivots}))}
    block = {(n, col_at[k]): v for n, r in enumerate(live_rows) for k, v in rows[r].items()}
    k, one = len(live_rows), GroupRingElement.of(scale.group.identity(scale.alphabet))
    return {"+": scale * _det(block, k, one),
            "-": (-scale if len(pivots) % 2 else scale) * _det(block, k, one, range(1, k + 1))}


def nabla(w: Nanoword, beta) -> dict[str, GroupRingElement]:
    """Sign-normalized determinant invariants ``{"+": nabla^+, "-": nabla^-}``
    over the commutative quotient.

    "+" drops the last column of the relation matrix, "-" the first, and one
    elimination gives both; the weight r^w and the pivots enter as one
    scale, a signed monomial.  The augmentation of each raw determinant is
    +-1 and fixes its sign, so aug(nabla) = 1.  The empty nanoword gives 1 for
    both (forced by multiplicativity): its relation matrix is 0 x 1.
    """
    out = {}
    for eps, raw in _eliminate(_entries(w, beta, PsiAbElement), len(w.word),
                               _weight(w, beta)).items():
        s = raw.aug()
        assert s in (1, -1), "augmentation of nabla must be a sign"
        out[eps] = raw if s == 1 else -raw
    return out


def sigma(x: GroupRingElement) -> GroupRingElement:
    """Swap the exponents of a and a. on every orbit, then invert the monomial.

    It turns nabla(w, beta) into nabla(w, alpha minus beta) with the signs
    swapped: nabla^-+ of the complement is sigma of nabla^+- of beta.
    """
    return x.map_terms(lambda g: PsiAbElement(
        g.alphabet, [-e for r, rb in zip(g.nf[::2], g.nf[1::2]) for e in (rb, r)]))


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
        check_beta(alphabet, beta)
        p = dict(p) if p else {a: 1 for a in alphabet.letters}
        p_bullet = dict(p_bullet) if p_bullet else {a: 1 for a in alphabet.letters}
        for fn, name in ((p, "p"), (p_bullet, "p.")):
            for a in alphabet.letters:
                if a not in fn:
                    raise InvalidSpec(f"{name} undefined on {a!r}")
            for a in fn:
                if a not in alphabet:
                    raise InvalidSpec(f"{name} given on {a!r}, not an alphabet letter")
            for a in alphabet.letters:
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
    """Integer rows of the homogeneous constraint system on x_0 .. x_2n: the
    relation rows at a -> p(a), a. -> p.(a)."""
    p, pb = dict(spec.p), dict(spec.p_bullet)
    rows = []
    for row in _relation_rows(w, spec.beta, lambda a: (p[a], pb[a]), 1):
        dense = [0] * (len(w.word) + 1)
        for j, v in row.items():
            dense[j] = v
        rows.append(dense)
    return rows


def _count_pinned(w: Nanoword, spec: ColoringSpec, solver) -> list[list[int]]:
    """Counts indexed by (input k, output l): the constraint rows with the pins
    x_0 = k, x_2n = l appended.  ``solver(rows, m, pins)`` returns a function
    from [k, l] to the number of solutions mod m of rows x = k pins[0] + l pins[1]."""
    if spec.alphabet != w.alphabet:
        raise AlphabetMismatch("coloring spec and nanoword have different alphabets")
    m = spec.modulus
    n2 = len(w.word)
    rows = _coloring_matrix(w, spec)
    zeros = [0] * len(rows)
    count = solver(rows + [[1] + [0] * n2, [0] * n2 + [1]], m,
                   [zeros + [1, 0], zeros + [0, 1]])
    return [[count([k, l]) for l in range(m)] for k in range(m)]


def count_colorings(w: Nanoword, spec: ColoringSpec) -> list[list[int]]:
    """Matrix of coloring counts indexed by (input k, output l) in (Z/m)^2.

    Counting runs through the Smith form over Z/m of the constraint rows with
    the two pins x_0 = k, x_2n = l appended; the form carries the pins' two
    unit columns as its right-hand sides.  Exact for every modulus.
    """
    return _count_pinned(w, spec, lambda full, m, pins: ModularCounter(full, m, pins).count)


def count_colorings_prime(w: Nanoword, spec: ColoringSpec) -> list[list[int]]:
    """Gaussian-elimination route, valid for prime modulus; cross-check path."""
    return _count_pinned(w, spec, lambda full, m, pins: lambda kl: count_mod_prime(
        full, [0] * (len(full) - 2) + kl, m))
