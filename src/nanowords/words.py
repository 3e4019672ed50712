"""Alphabets with involution, etale words, nanowords and their basic calculus.

An alphabet is a finite symbol set with an involution ``tau`` and a chosen
orientation (one representative per tau-orbit).  An etale word over it is a
word in an auxiliary letter set together with a projection onto the alphabet;
a nanoword is an etale word in which every letter occurs exactly twice.
Words of arbitrary multiplicity are approximated by nanowords through
desingularization, and nanowords are compared through a canonical form that
renames letters by first occurrence.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Mapping, Sequence

from .errors import (AlphabetMismatch, InvalidAlphabet, NotAGaussWord, UnknownLetter,
                     UnknownSymbol)


class Alphabet:
    """Finite symbol set with involution ``tau`` and orientation ``alpha0``.

    Orbits are listed in order of first appearance in ``letters``; the
    orientation picks one representative per orbit (default: the first-listed
    member).  All derived data (orbit index, representative, fixedness) is
    precomputed since every other module consults it constantly.
    """

    def __init__(self, letters: Sequence[str], tau: Mapping[str, str] | None = None,
                 orientation: Sequence[str] | None = None):
        self.letters = tuple(letters)
        if len(set(self.letters)) != len(self.letters):
            raise InvalidAlphabet("alphabet letters must be distinct")
        tau = dict(tau) if tau else {a: a for a in self.letters}
        for a in self.letters:
            if a not in tau:
                raise InvalidAlphabet(f"involution undefined on {a!r}")
            if tau[a] not in self.letters:
                raise UnknownSymbol(f"tau({a!r}) = {tau[a]!r} is not a letter")
        for a in self.letters:
            if tau[tau[a]] != a:
                raise InvalidAlphabet("tau is not an involution")
        self._tau = tau

        orbits: list[tuple[str, ...]] = []
        seen: set[str] = set()
        for a in self.letters:
            if a in seen:
                continue
            orbit = (a,) if tau[a] == a else (a, tau[a])
            seen.update(orbit)
            orbits.append(orbit)
        self.orbits = tuple(orbits)

        if orientation is None:
            orientation = tuple(o[0] for o in orbits)
        self.orientation = tuple(orientation)
        hit = set()
        for a in self.orientation:
            if a not in self.letters:
                raise UnknownSymbol(f"orientation letter {a!r} not in alphabet")
            hit.add(self._orbit_key(a))
        if len(self.orientation) != len(orbits) or len(hit) != len(orbits):
            raise InvalidAlphabet("orientation must meet every tau-orbit exactly once")

        self._orbit_index = {a: i for i, o in enumerate(orbits) for a in o}
        self._rep = {}
        for r in self.orientation:
            for a in self.orbits[self._orbit_index[r]]:
                self._rep[a] = r
        self.fixed_orbit_indices = tuple(i for i, o in enumerate(orbits) if len(o) == 1)
        # group identities and generators, made once: (class, letter, bullet) -> element
        self._elements: dict = {}

    def _orbit_key(self, a: str) -> str:
        return min(a, self._tau[a])

    def tau(self, a: str) -> str:
        try:
            return self._tau[a]
        except KeyError:
            raise UnknownSymbol(f"{a!r} is not an alphabet letter") from None

    def is_fixed(self, a: str) -> bool:
        return self.tau(a) == a

    def orbit_index(self, a: str) -> int:
        try:
            return self._orbit_index[a]
        except KeyError:
            raise UnknownSymbol(f"{a!r} is not an alphabet letter") from None

    def rep(self, a: str) -> str:
        """Orientation representative of the orbit of ``a``."""
        try:
            return self._rep[a]
        except KeyError:
            raise UnknownSymbol(f"{a!r} is not an alphabet letter") from None

    def orbit_rep(self, idx: int) -> str:
        return self._rep[self.orbits[idx][0]]

    @cached_property
    def is_fixed_point_free(self) -> bool:
        return not self.fixed_orbit_indices

    @cached_property
    def involutions(self) -> "Alphabet":
        """The orbit representatives, in orbit order, each its own tau; orbit i
        keeps index i, and Pi over this alphabet is Pi' of this one."""
        return Alphabet([self.orbit_rep(i) for i in range(len(self.orbits))])

    def __contains__(self, a: str) -> bool:
        return a in self._orbit_index

    def __eq__(self, other) -> bool:
        return (isinstance(other, Alphabet) and self.letters == other.letters
                and self._tau == other._tau and self.orientation == other.orientation)

    def __hash__(self):
        return hash((self.letters, tuple(sorted(self._tau.items())), self.orientation))

    def __repr__(self):
        pairs = " ".join(f"{a}<->{self._tau[a]}" for o in self.orbits for a in o[:1])
        return f"Alphabet({' '.join(self.letters)}; {pairs}; alpha0={' '.join(self.orientation)})"


Letter = Hashable


class EtaleWord:
    """A word in a letter set equipped with a projection to the alphabet."""

    def __init__(self, alphabet: Alphabet, word: Sequence[Letter], proj: Mapping[Letter, str]):
        self.alphabet = alphabet
        self.word = tuple(word)
        self.proj = dict(proj)
        for x in self.word:
            if x not in self.proj:
                raise UnknownLetter(f"letter {x!r} has no projection")
        for x, a in self.proj.items():
            if a not in alphabet:
                raise UnknownSymbol(f"|{x!r}| = {a!r} is not an alphabet letter")

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        """Letter set in order of first occurrence (unused letters dropped)."""
        return tuple(dict.fromkeys(self.word))

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        return (isinstance(other, EtaleWord) and self.alphabet == other.alphabet
                and self.word == other.word
                and all(self.proj[x] == other.proj.get(x) for x in self.word))

    def __hash__(self):
        return hash((self.word, tuple(self.proj.get(x) for x in self.word)))

    def __repr__(self):
        body = " ".join(str(x) for x in self.word) or "(empty)"
        pr = " ".join(f"{x}={self.proj[x]}" for x in self.letters)
        return f"{type(self).__name__}[{body} | {pr}]"


class Nanoword(EtaleWord):
    """An etale word in which every letter occurs exactly twice."""

    def __init__(self, alphabet, word, proj):
        super().__init__(alphabet, word, proj)
        counts: dict[Letter, int] = {}
        for x in self.word:
            counts[x] = counts.get(x, 0) + 1
        bad = [x for x, c in counts.items() if c != 2]
        if bad:
            raise NotAGaussWord(f"not a Gauss word: letters {bad!r} do not occur exactly twice")

    @cached_property
    def _occurrences(self) -> dict[Letter, tuple[int, int]]:
        """The table ``{x: (i_x, j_x)}``, made in one pass over the word."""
        table: dict[Letter, tuple[int, ...]] = {}
        for pos, x in enumerate(self.word, start=1):
            table[x] = table.get(x, ()) + (pos,)
        return table

    def occurrences(self, x: Letter) -> tuple[int, int]:
        """1-based positions (i_x, j_x) of the two occurrences of ``x``.

        Every invariant reads the positions of a letter from here."""
        try:
            return self._occurrences[x]
        except KeyError:
            raise UnknownLetter(f"{x!r} is not a letter of the nanoword") from None

    def canonical(self) -> "Nanoword":
        """Rename letters 1, 2, ... by first occurrence and prune unused ones.

        Two nanowords are isomorphic iff their canonical forms are equal.
        """
        return Nanoword.from_key(self.alphabet, self.key())

    def key(self):
        """Hashable canonical key: occurrence pattern plus projection row."""
        return _key_of(self.word, self.proj)

    @classmethod
    def from_key(cls, alphabet: Alphabet, key) -> "Nanoword":
        """The canonical nanoword whose ``key()`` is ``key``."""
        pattern, row = key
        return cls(alphabet, tuple(str(x) for x in pattern),
                   {str(i): a for i, a in enumerate(row, start=1)})

    def isomorphic(self, other: "Nanoword") -> bool:
        return self.alphabet == other.alphabet and self.key() == other.key()


def _key_of(seq, proj):
    """Canonical key of ``seq``: rename its letters 1, 2, ... by first occurrence."""
    order = dict.fromkeys(seq)
    names = dict(zip(order, range(1, len(order) + 1)))
    return tuple(map(names.__getitem__, seq)), tuple(map(proj.__getitem__, order))


def from_word(word: Sequence[str] | str, alphabet: Alphabet) -> EtaleWord:
    """View a word in the alphabet as an etale word with identity projection."""
    symbols = tuple(word)
    for s in symbols:
        if s not in alphabet:
            raise UnknownSymbol(f"{s!r} is not an alphabet letter")
    return EtaleWord(alphabet, symbols, {a: a for a in alphabet.letters})


def desingularize(w: EtaleWord) -> Nanoword:
    """Replace every multiplicity-m letter by its m(m-1)/2 doubled letters.

    The i-th entry of a letter A expands to A_{1,i} ... A_{i-1,i} A_{i,i+1}
    ... A_{i,m}; multiplicity-1 letters are deleted.  The result is a nanoword
    of length sum_A m(A) (m(A) - 1), and on nanowords the map is the identity
    up to isomorphism.
    """
    mult: dict[Letter, int] = {}
    for x in w.word:
        mult[x] = mult.get(x, 0) + 1
    out: list[Letter] = []
    proj: dict[Letter, str] = {}
    seen: dict[Letter, int] = {}
    for x in w.word:
        m = mult[x]
        if m < 2:
            continue
        i = seen[x] = seen.get(x, 0) + 1
        chunk = [(x, j, i) for j in range(1, i)] + [(x, i, j) for j in range(i + 1, m + 1)]
        out.extend(chunk)
        for name in chunk:
            proj[name] = w.proj[x]
    return Nanoword(w.alphabet, out, proj)


def _retag(w: EtaleWord, tag: str) -> EtaleWord:
    word = tuple((tag, x) for x in w.word)
    proj = {(tag, x): w.proj[x] for x in w.letters}
    return EtaleWord(w.alphabet, word, proj)


def product(w1: EtaleWord, w2: EtaleWord) -> EtaleWord:
    """Concatenation over the disjoint union of the letter sets."""
    if w1.alphabet != w2.alphabet:
        raise AlphabetMismatch("product requires a common alphabet")
    a, b = _retag(w1, "l"), _retag(w2, "r")
    out = EtaleWord(w1.alphabet, a.word + b.word, {**a.proj, **b.proj})
    if isinstance(w1, Nanoword) and isinstance(w2, Nanoword):
        return Nanoword(out.alphabet, out.word, out.proj).canonical()
    return out


def opposite(w: EtaleWord) -> EtaleWord:
    cls = Nanoword if isinstance(w, Nanoword) else EtaleWord
    return cls(w.alphabet, tuple(reversed(w.word)), w.proj)


def inverse(w: EtaleWord) -> EtaleWord:
    """Same word with the projection composed with tau."""
    cls = Nanoword if isinstance(w, Nanoword) else EtaleWord
    return cls(w.alphabet, w.word, {x: w.alphabet.tau(a) for x, a in w.proj.items()})


def nanoword_from_pattern(alphabet: Alphabet, pattern: str | Sequence[str],
                          proj: Mapping[str, str]) -> Nanoword:
    """Convenience builder: ``nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})``."""
    tokens = pattern.split() if isinstance(pattern, str) and " " in pattern else tuple(pattern)
    return Nanoword(alphabet, tuple(tokens), proj)


def empty_nanoword(alphabet: Alphabet) -> Nanoword:
    return Nanoword(alphabet, (), {})


def format_nanoword(w: Nanoword) -> str:
    c = w.canonical()
    if not c.word:
        return "(empty)"
    body = " ".join(c.word)
    pr = " ".join(f"{x}={c.proj[x]}" for x in c.letters)
    return f"{body}  [{pr}]"
