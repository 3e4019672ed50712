"""Interlacement of letters, letter classes, coverings, and the group images.

Two letters are interlaced when their occurrences alternate (A..B..A..B);
the sign distinguishes which starts first.  ``interlacement(w)`` is one
table ``{(A, B): +-1}`` of the nonzero entries of n_w.  Summing alphabet
values along interlacements gives each letter a class [A]_w in pi, which
drives the coverings and, through the free-product groups, the invariants
gamma, gamma', gamma~ and the orbit-pair function mu.
"""

from __future__ import annotations

from itertools import combinations

from .errors import AlphabetMismatch
from .groups import PiElement, PiTildeElement, PiWord, SubgroupOfPi
from .words import Alphabet, Letter, Nanoword


def interlacement(w: Nanoword) -> dict[tuple[Letter, Letter], int]:
    """The nonzero entries of n_w: n_w(A, B) = 1 = -n_w(B, A) when A..B..A..B."""
    entries = {}
    for x, y in combinations(w.letters, 2):
        (ix, jx), (iy, jy) = w.occurrences(x), w.occurrences(y)
        if ix < iy < jx < jy:
            entries[x, y], entries[y, x] = 1, -1
        elif iy < ix < jy < jx:
            entries[x, y], entries[y, x] = -1, 1
    return entries


def _classes_of(al: Alphabet, letters, proj, n: dict) -> dict[Letter, PiElement]:
    """[A] = prod_B |B|^{n(A,B)} in pi for every letter A, from the nonzero
    entries ``n`` of an interlacement: one exponent vector summed per letter."""
    exps = {a: [0] * len(al.orbits) for a in letters}
    for (a, b), e in n.items():
        v = proj[b]  # the generator of v is +1 on its orbit if v is in alpha0, else -1
        exps[a][al.orbit_index(v)] += e if al.rep(v) == v else -e
    return {a: PiElement(al, vec) for a, vec in exps.items()}


def letter_class(w: Nanoword, a: Letter) -> PiElement:
    """[A]_w = prod_B |B|^{n_w(A,B)} in pi."""
    w.occurrences(a)  # raises UnknownLetter unless a is a letter of w
    return letter_classes(w)[a]


def letter_classes(w: Nanoword) -> dict[Letter, PiElement]:
    return _classes_of(w.alphabet, w.letters, w.proj, interlacement(w))


def covering(w: Nanoword, subgroups: dict[str, SubgroupOfPi] | SubgroupOfPi) -> Nanoword:
    """Delete every letter whose class falls outside H_{|A|}.

    ``subgroups`` is keyed by orientation representative (one subgroup per
    tau-orbit, which makes the condition H_a = H_tau(a) structural), or a
    single subgroup used for every orbit.
    """
    if isinstance(subgroups, SubgroupOfPi):
        subgroups = {r: subgroups for r in w.alphabet.orientation}
    for r in w.alphabet.orientation:
        if r not in subgroups:
            raise AlphabetMismatch(f"no subgroup for the orbit of {r!r}")
    classes = letter_classes(w)
    keep = []
    for x in w.word:
        h = subgroups[w.alphabet.rep(w.proj[x])]
        if h.contains(classes[x]):
            keep.append(x)
    return Nanoword(w.alphabet, keep, {x: w.proj[x] for x in keep})


# ---------------------------------------------------------------------------
# gamma and friends


def gamma(w: Nanoword) -> PiWord:
    """z_{|A|} at first occurrences, its inverse (= z_{tau|A|}) at second."""
    out = PiWord.identity(w.alphabet)
    for pos, x in enumerate(w.word, start=1):
        a = w.proj[x]
        g = PiWord.generator(w.alphabet, a if pos == w.occurrences(x)[0] else w.alphabet.tau(a))
        out = out * g
    return out


def gamma_prime(w: Nanoword) -> PiWord:
    return gamma(w).to_prime()


def gamma_tilde(w: Nanoword) -> PiTildeElement:
    """Lift of gamma to the central extension Pi~, read off gamma(w); it is
    killed by interlaced squares such as ABAB with |A| = |B|."""
    return PiTildeElement(gamma(w))


class MuMatrix:
    """Skew-symmetric integer function on ordered pairs of tau-orbits."""

    def __init__(self, alphabet: Alphabet, entries: dict[tuple[int, int], int]):
        self.alphabet = alphabet
        self.entries = {k: v for k, v in entries.items() if v}

    def value(self, a: str, b: str) -> int:
        al = self.alphabet
        return self.entries.get((al.orbit_index(a), al.orbit_index(b)), 0)

    def key(self):
        return tuple(sorted(self.entries.items()))

    def __eq__(self, other):
        return isinstance(other, MuMatrix) and self.entries == other.entries

    def __repr__(self):
        al = self.alphabet
        body = ", ".join(f"({al.orbit_rep(i)},{al.orbit_rep(j)})={v}"
                         for (i, j), v in sorted(self.entries.items()))
        return f"Mu[{body or '0'}]"


_PI0 = Alphabet(["x", "y"])  # free product of two involutions


def _power_of_xyxy(word: PiWord) -> int:
    """Exponent m with word = (xyxy)^m in (x, y | x^2 = y^2 = 1)."""
    syl = word.nf
    if not syl:
        return 0
    if len(syl) % 4:
        raise ValueError("element is not in the commutator subgroup of Pi0")
    for (o1, _), (o2, _) in zip(syl, syl[1:]):
        if o1 == o2:
            raise ValueError("unreduced Pi0 word")
    m = len(syl) // 4
    return m if syl[0][0] == 0 else -m


def mu(w: Nanoword) -> MuMatrix:
    """For each orbit pair, the power of xyxy hit by gamma' in Pi0.

    The first argument's orbit maps to x.  Same-orbit pairs are 0.
    """
    return _mu_of(w.alphabet, gamma_prime(w))


def _mu_of(al: Alphabet, g: PiWord) -> MuMatrix:
    """mu over the alphabet ``al`` of a nanoword whose gamma' is ``g``."""
    entries: dict[tuple[int, int], int] = {}
    n = len(al.orbits)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # orbit i maps to x (orbit 0 of Pi0), orbit j to y (orbit 1)
            proj = PiWord(_PI0, [(0 if o == i else 1, e) for o, e in g.nf if o in (i, j)])
            entries[(i, j)] = _power_of_xyxy(proj)
    return MuMatrix(al, entries)
