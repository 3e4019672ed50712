"""The path-sum invariant of a nanoword over the ring on a, a. generators.

With beta the whole alphabet, the letter-relation module is free of rank 1
on the input x_0, so the output is x_2n = lam' x_0 for a unique ring element
lam'.  Reading monomials right to left gives lam, computed here as a path
sum in one pass over the word: a segment per position and a backward arc
at each second occurrence.  The tests check it against a second route,
forward substitution in the relation rows (``tests/oracles.py``).
"""

from __future__ import annotations

from .groups import GroupRingElement, PiWord, PsiElement
from .words import Nanoword


def lambda_invariant(w: Nanoword) -> GroupRingElement:
    """Sum over descending paths of the weights written right to left.

    One pass over the positions: f[pos] = f[pos - 1] a at the first
    occurrence i of a letter valued a, and f[pos - 1] a. + f[i - 1] (1 - a a.)
    at its second one.
    """
    al = w.alphabet
    one = GroupRingElement.of(PsiElement.identity(al))
    f = [one]
    for pos, x in enumerate(w.word, start=1):
        a = w.proj[x]
        i = w.occurrences(x)[0]
        g = PsiElement.generator(al, a, bullet=pos != i)
        val = f[pos - 1] * GroupRingElement.of(g)
        if pos != i:
            val = val + f[i - 1] * (one - GroupRingElement.of(PsiElement.generator(al, a) * g))
        f.append(val)
    return f[-1]


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
    al = w.alphabet
    out = PsiElement.identity(al)
    for pos, x in enumerate(w.word, start=1):
        out = out * PsiElement.generator(al, w.proj[x], bullet=pos != w.occurrences(x)[0])
    return out
