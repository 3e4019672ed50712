"""Independent routes to results that the library computes another way.

The tests check the library against these reference implementations; no
production code calls them.  Each is the simplest correct computation, not a
fast one: lambda by forward substitution in the relation rows, coloring
counts by enumeration, pairing isomorphism by bijection search, and the
skew-symmetry predicate on self-linking sections.
"""

from __future__ import annotations

from nanowords.groups import GroupRingElement, PiElement, PsiElement, psi_abelianize
from nanowords.lambdainv import iota
from nanowords.matrices import ColoringSpec, _coloring_matrix, weighted_matrix
from nanowords.pairings import AlphaPairing
from nanowords.selflinking import SelfLinkSection
from nanowords.words import Nanoword


def lambda_by_substitution(w: Nanoword) -> GroupRingElement:
    """Independent route: solve the relation rows left-to-right, then reverse.

    Cross-checks the path sum; uses the actual weighted-matrix rows.
    """
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


def q_ab(x: GroupRingElement) -> GroupRingElement:
    """Projection to the commutative quotient."""
    return x.map_terms(psi_abelianize)


def count_colorings_bruteforce(w: Nanoword, spec: ColoringSpec) -> list[list[int]]:
    """Enumerate all functions f: {0..2n} -> Z/m; oracle for small instances."""
    m = spec.modulus
    n2 = len(w.word)
    out = [[0] * m for _ in range(m)]
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


def _signature(p: AlphaPairing, a):
    return (p.proj[a], p.b(a, AlphaPairing.S).sort_key())


def pairings_isomorphic(p1: AlphaPairing, p2: AlphaPairing) -> bool:
    """Bijection search fixing s, preserving projections and b.

    Candidates are pruned by the (projection, b(.,s)) signature.
    """
    if p1.alphabet != p2.alphabet or len(p1.letters) != len(p2.letters):
        return False
    sig1: dict = {}
    sig2: dict = {}
    for a in p1.letters:
        sig1.setdefault(_signature(p1, a), []).append(a)
    for a in p2.letters:
        sig2.setdefault(_signature(p2, a), []).append(a)
    if set(sig1) != set(sig2):
        return False
    if any(len(sig1[k]) != len(sig2[k]) for k in sig1):
        return False

    order = [a for k in sorted(sig1) for a in sig1[k]]
    pool = {k: list(v) for k, v in sig2.items()}

    def extend(assign: dict, idx: int) -> bool:
        if idx == len(order):
            return True
        a = order[idx]
        for cand in pool[_signature(p1, a)]:
            if cand in assign.values():
                continue
            if all(p1.b(a, x) == p2.b(cand, y) and p1.b(x, a) == p2.b(y, cand)
                   for x, y in assign.items()):
                assign[a] = cand
                if extend(assign, idx + 1):
                    return True
                del assign[a]
        return False

    return extend({}, 0)


def coeff(x: GroupRingElement, g) -> int:
    """The coefficient of the group element ``g`` in ``x``."""
    return x.terms.get(g.nf, 0) if type(g) is x.group else 0


def _partial(alphabet, x: GroupRingElement, b: str, torsion: bool) -> int:
    """d_b: send a monomial to its b-exponent, extended additively."""
    bi = alphabet.orbit_index(b)
    total = 0
    for g, c in x.items():
        total += c * g.nf[bi]
    return total % 2 if torsion else total


def is_skew_symmetric_section(u: SelfLinkSection) -> bool:
    """delta_a(u(a)) = 0, d_a(u(a)) = 0 and d_a(u(b)) + d_b(u(a)) = 0."""
    al = u.alphabet
    one = PiElement.identity(al)
    for a in al.orientation:
        va = u.values[a]
        c = coeff(va, one)
        if (c % 2 if al.is_fixed(a) else c) != 0:
            return False
        if _partial(al, va, a, al.is_fixed(a)) != 0:
            return False
    for a in al.orientation:
        for b in al.orientation:
            if a >= b:
                continue
            torsion = al.is_fixed(a) or al.is_fixed(b)
            s = _partial(al, u.values[b], a, torsion) + _partial(al, u.values[a], b, torsion)
            if (s % 2 if torsion else s) != 0:
                return False
    return True
