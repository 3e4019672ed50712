"""Interlacement of letters, letter classes, coverings, and the group images.

Two letters are interlaced when their occurrences alternate (A..B..A..B);
the sign distinguishes which starts first.  Summing alphabet values along
interlacements gives each letter a class [A]_w in pi, which drives the
coverings and, through the free-product groups, the invariants gamma,
gamma', gamma~ and the orbit-pair function mu.
"""

from __future__ import annotations

from .groups import (PiElement, PiTildeElement, PiWord, SubgroupOfPi)
from .words import Alphabet, Letter, Nanoword


class InterlacementMatrix:
    """Skew-symmetric {-1, 0, 1} matrix over the letter set of a nanoword."""

    def __init__(self, letters, entries):
        self.letters = tuple(letters)
        self._n = dict(entries)

    def n(self, a: Letter, b: Letter) -> int:
        return self._n.get((a, b), 0)

    def row(self, a: Letter):
        return [self.n(a, b) for b in self.letters]

    def as_rows(self):
        return [self.row(a) for a in self.letters]


def interlacement(w: Nanoword) -> InterlacementMatrix:
    letters = w.letters
    entries = {}
    for x in letters:
        ix, jx = w.occurrences(x)
        for y in letters:
            if x == y:
                continue
            iy, jy = w.occurrences(y)
            if ix < iy < jx < jy:
                entries[(x, y)] = 1
            elif iy < ix < jy < jx:
                entries[(x, y)] = -1
    return InterlacementMatrix(letters, entries)


def letter_class(w: Nanoword, a: Letter, matrix: InterlacementMatrix | None = None) -> PiElement:
    """[A]_w = prod_B |B|^{n_w(A,B)} in pi."""
    w.occurrences(a)  # raises UnknownLetter unless a is a letter of w
    matrix = matrix or interlacement(w)
    out = PiElement.identity(w.alphabet)
    for b in matrix.letters:
        e = matrix.n(a, b)
        if e:
            out = out * (PiElement.generator(w.alphabet, w.proj[b]) ** e)
    return out


def letter_classes(w: Nanoword) -> dict[Letter, PiElement]:
    m = interlacement(w)
    return {a: letter_class(w, a, m) for a in w.letters}


def covering(w: Nanoword, subgroups: dict[str, SubgroupOfPi] | SubgroupOfPi) -> Nanoword:
    """Delete every letter whose class falls outside H_{|A|}.

    ``subgroups`` is keyed by orientation representative (one subgroup per
    tau-orbit, which makes the condition H_a = H_tau(a) structural), or a
    single subgroup used for every orbit.
    """
    classes = letter_classes(w)
    if isinstance(subgroups, SubgroupOfPi):
        subgroups = {r: subgroups for r in w.alphabet.orientation}
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
