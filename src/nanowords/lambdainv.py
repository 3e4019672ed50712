"""The path-sum invariant of a nanoword over the ring on a, a. generators.

With beta the whole alphabet, the letter-relation module is free of rank 1
on the input x_0, so the output is x_2n = lam' x_0 for a unique ring element
lam'.  Reading monomials right to left gives lam, computed here as a path
sum on a graph with one segment per position and one backward arc per
second occurrence.  A second, independent computation solves the relation
rows by forward substitution; the two must agree.
"""

from __future__ import annotations

from .groups import GroupRingElement, PiWord, PsiElement, psi_abelianize
from .words import Nanoword


class LambdaGraph:
    """Vertices 0..2n; segment [i-1, i] weighted k_i, arcs (i -> i') weighted l_i."""

    def __init__(self, alphabet, size: int, segments: list[PsiElement],
                 arcs: dict[int, tuple[int, GroupRingElement]]):
        self.alphabet = alphabet
        self.size = size
        self.segments = segments  # segments[i] is the weight of [i, i+1]
        self.arcs = arcs          # arcs[i] = (i', weight) with i' < i - 1

    def path_count(self) -> int:
        counts = [1] + [0] * self.size
        for i in range(1, self.size + 1):
            counts[i] = counts[i - 1]
            if i in self.arcs:
                counts[i] += counts[self.arcs[i][0]]
        return counts[self.size]


def lambda_graph(w: Nanoword) -> LambdaGraph:
    w = w.canonical()
    al = w.alphabet
    one = PsiElement.identity(al)
    segments = [one] * len(w.word)
    arcs: dict[int, tuple[int, GroupRingElement]] = {}
    for x in w.letters:
        i_a, j_a = w.occurrences(x)
        a = w.proj[x]
        g = PsiElement.generator(al, a)
        gb = PsiElement.generator(al, a, bullet=True)
        segments[i_a - 1] = g
        segments[j_a - 1] = gb
        mixed = GroupRingElement.of(one) - GroupRingElement.of(g * gb)
        arcs[j_a] = (i_a - 1, mixed)
    return LambdaGraph(al, len(w.word), segments, arcs)


def lambda_invariant(w: Nanoword) -> GroupRingElement:
    """Sum over descending paths of the weights written right to left."""
    al = w.alphabet
    one = GroupRingElement.of(PsiElement.identity(al))
    if not w.word:
        return one
    g = lambda_graph(w)
    f = [one] + [None] * g.size
    for i in range(1, g.size + 1):
        val = f[i - 1] * GroupRingElement.of(g.segments[i - 1])
        if i in g.arcs:
            tgt, weight = g.arcs[i]
            val = val + f[tgt] * weight
        f[i] = val
    return f[g.size]


def lambda_prime(w: Nanoword) -> GroupRingElement:
    return iota(lambda_invariant(w))


def iota(x: GroupRingElement) -> GroupRingElement:
    """Anti-automorphism reading every monomial from right to left."""
    return x.map_terms(lambda g: g.reverse())


def kappa(x: GroupRingElement) -> GroupRingElement:
    """Anti-automorphism swapping plain and bullet generators."""
    return x.map_terms(lambda g: g.kappa())


def bar(x: GroupRingElement) -> GroupRingElement:
    """Ring involution from a -> tau(a), a. -> tau(a). ."""
    return x.map_terms(lambda g: g.tau_sharp())


def lambda_by_substitution(w: Nanoword) -> GroupRingElement:
    """Independent route: solve the relation rows left-to-right, then reverse.

    Cross-checks the path sum; uses the actual weighted-matrix rows.
    """
    from .matrices import weighted_matrix

    al = w.alphabet
    one = GroupRingElement.of(PsiElement.identity(al))
    if not w.word:
        return one
    m = weighted_matrix(w, set(al.letters))
    minus_one = one * -1
    solving: dict[int, dict[int, GroupRingElement]] = {}
    for i in range(m.rows):
        row = {j: m.entry(i, j) for j in range(m.cols) if not m.entry(i, j).is_zero()}
        lead = max(row)
        assert row[lead] == minus_one
        solving[lead] = {j: v for j, v in row.items() if j != lead}
    coeff = [None] * m.cols
    coeff[0] = one
    for i in range(1, m.cols):
        total = GroupRingElement.zero(al)
        for j, v in solving[i].items():
            total = total + v * coeff[j]
        coeff[i] = total
    return iota(coeff[m.cols - 1])


# ---------------------------------------------------------------------------
# Splitting, tensor expansion, consistency maps


def lambda_split(x: GroupRingElement) -> dict[tuple[int, int], GroupRingElement]:
    """Four components by (deg mod 2, deg_bullet mod 2) of each monomial."""
    parts: dict = {(i, j): {} for i in (0, 1) for j in (0, 1)}
    for g, c in x.items():
        parts[g.deg() % 2, g.deg_bullet() % 2][g.nf] = c
    return {key: GroupRingElement(x.alphabet, x.group, terms) for key, terms in parts.items()}


def psi_expand(x: GroupRingElement) -> dict[tuple[PiWord, PiWord], int]:
    """Expansion over the basis x (x) y of the tensor square of the Pi ring.

    Plain generators land in the left factor, bullet generators in the
    right, each keeping its monomial order.
    """
    al = x.alphabet
    out: dict[tuple[PiWord, PiWord], int] = {}
    for g, c in x.items():
        key = (PiWord(al, [(o, e) for o, e, _ in g.nf]),
               PiWord(al, [(o, eb) for o, _, eb in g.nf]))
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]
    return out


def _pi_image(x: GroupRingElement, plain_exp, bullet_exp) -> GroupRingElement:
    return x.map_terms(lambda g: PiWord(x.alphabet, [
        s for o, e, eb in g.nf for s in ((o, plain_exp(e)), (o, bullet_exp(eb)))]))


def map_p(x: GroupRingElement) -> GroupRingElement:
    """a -> z_a, a. -> z_tau(a); sends lam(w) to gamma(w)."""
    return _pi_image(x, lambda e: e, lambda eb: -eb)


def map_r(x: GroupRingElement) -> GroupRingElement:
    """a -> z_a, a. -> 1; evaluates to 1 on every lam(w)."""
    return _pi_image(x, lambda e: e, lambda eb: 0)


def map_r_bullet(x: GroupRingElement) -> GroupRingElement:
    """a -> 1, a. -> z_a; evaluates to 1 on every lam(w)."""
    return _pi_image(x, lambda e: 0, lambda eb: eb)


def lambda_checks(w: Nanoword) -> dict[str, bool]:
    """The three ring-map identities every lam(w) satisfies."""
    from .interlacement import gamma

    lam = lambda_invariant(w)
    al = w.alphabet
    one_pi = GroupRingElement.of(PiWord.identity(al))
    return {
        "p(lambda) == gamma": map_p(lam) == GroupRingElement.of(gamma(w)),
        "r(lambda) == 1": map_r(lam) == one_pi,
        "r.(lambda) == 1": map_r_bullet(lam) == one_pi,
    }


def w_star(w: Nanoword) -> PsiElement:
    """The leading monomial: a at first occurrences, a. at second ones."""
    w = w.canonical()
    al = w.alphabet
    seen = set()
    out = PsiElement.identity(al)
    for x in w.word:
        bullet = x in seen
        seen.add(x)
        out = out * PsiElement.generator(al, w.proj[x], bullet=bullet)
    return out


def q_ab(x: GroupRingElement) -> GroupRingElement:
    """Projection to the commutative quotient."""
    return x.map_terms(psi_abelianize)
