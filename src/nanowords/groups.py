"""Normal-form arithmetic in the groups and rings attached to an alphabet.

Five groups appear:

* ``pi``      -- abelian, generators {a} with a tau(a) = 1; so Z^k x (Z/2)^l.
* ``Pi``      -- free product: generators z_a with z_a z_tau(a) = 1.
* ``Pi'``     -- quotient of Pi by z_a^2 = 1 (one involution per orbit).
* ``Pi~``     -- central extension of Pi in which c_a = z_a z_tau(a) is
                 central instead of trivial.
* ``Psi``     -- generators a, a. with a a. = a. a and a tau(a) = a. tau(a). = 1;
                 a free product of one abelian block (Z^2 or (Z/2)^2) per orbit.

Each element stores its normal form in ``nf``; equal normal forms over one
alphabet are equal elements.  Group-ring elements over any of them are
finite integer-coefficient maps.  Everything is stored on the orientation
basis: a generator outside alpha0 enters as exponent -1 (respectively bit 1)
of its orbit representative.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping

from .errors import AlphabetMismatch, UnknownSymbol
from .intlinalg import solve_integer
from .words import Alphabet


def _check_same(x, y):
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch("operands live over different alphabets")


def _sign(alphabet: Alphabet, a: str) -> int:
    """Exponent of the generator ``a`` on its orbit representative.

    A fixed letter is its own representative, so it gets +1.
    """
    return 1 if alphabet.rep(a) == a else -1


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _psi_letters(r: str, e: int, eb: int) -> list[str]:
    """Printed factors r^e r.^eb of one orbit block of Psi."""
    return ([_power(r, e)] if e else []) + ([_power(f"{r}.", eb)] if eb else [])


def _reduce(syllables, torsion) -> tuple:
    """Free-product normal form of syllables ``(orbit, *exponents)``.

    Adjacent syllables in one orbit merge by adding exponents, mod 2 for the
    orbits in ``torsion``; a syllable whose exponents all vanish drops out.
    """
    out: list[tuple] = []
    for syl in syllables:
        orbit = syl[0]
        if out and out[-1][0] == orbit:
            syl = (orbit, *map(add, out.pop()[1:], syl[1:]))
        if orbit in torsion:
            syl = (orbit, *[e % 2 for e in syl[1:]])
        if any(syl[1:]):
            out.append(tuple(syl))
    return tuple(out)


class _Element:
    """Group element given by its normal form ``nf`` over ``alphabet``.

    Subclasses set ``nf`` and supply ``identity``, ``__mul__``, ``inverse``
    and ``format``.
    """

    __slots__ = ("alphabet", "nf")

    def is_identity(self) -> bool:
        return self.nf == self.identity(self.alphabet).nf

    def __pow__(self, n: int):
        base = self if n >= 0 else self.inverse()
        out = self * self.inverse()  # the identity of self's own group (Pi or Pi')
        for _ in range(abs(n)):
            out = out * base
        return out

    def sort_key(self):
        return self.nf

    def __eq__(self, other):
        return (type(other) is type(self) and self.nf == other.nf
                and self.alphabet == other.alphabet)

    def __hash__(self):
        return hash(self.nf)

    def __repr__(self):
        return f"{self._name}[{self.format()}]"


# ---------------------------------------------------------------------------
# pi: the abelian quotient


class PiElement(_Element):
    """Element of pi on the orientation basis: one exponent per orbit.

    Free orbits carry a Z exponent, fixed points a Z/2 bit.
    """

    __slots__ = ()
    _name = "pi"

    def __init__(self, alphabet: Alphabet, exps: Iterable[int]):
        self.alphabet = alphabet
        norm = []
        for i, e in enumerate(exps):
            norm.append(e % 2 if alphabet.orbit_is_fixed(i) else e)
        self.nf = tuple(norm)
        assert len(self.nf) == len(alphabet.orbits)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "PiElement":
        return cls(alphabet, [0] * len(alphabet.orbits))

    @classmethod
    def generator(cls, alphabet: Alphabet, a: str) -> "PiElement":
        exps = [0] * len(alphabet.orbits)
        exps[alphabet.orbit_index(a)] = _sign(alphabet, a)
        return cls(alphabet, exps)

    def __mul__(self, other: "PiElement") -> "PiElement":
        _check_same(self, other)
        return PiElement(self.alphabet, [x + y for x, y in zip(self.nf, other.nf)])

    def inverse(self) -> "PiElement":
        return PiElement(self.alphabet, [-x for x in self.nf])

    def __pow__(self, n: int) -> "PiElement":
        return PiElement(self.alphabet, [n * x for x in self.nf])

    def bar(self) -> "PiElement":
        """The involution sending every element to its inverse (= tau_*)."""
        return self.inverse()

    def is_identity(self) -> bool:
        return not any(self.nf)

    def degree(self) -> int:
        """Word length in the generators {a}: |free exponents| + fixed bits."""
        return sum(abs(e) for e in self.nf)

    def format(self) -> str:
        parts = [_power(self.alphabet.orbit_rep(i), e) for i, e in enumerate(self.nf) if e]
        return " ".join(parts) or "1"


def parse_pi(alphabet: Alphabet, text: str) -> PiElement:
    """Parse ``a^2 b`` or condensed ``ab`` (single-char letters) into pi.

    Raises ``UnknownSymbol`` naming the first letter outside the alphabet.
    """
    def generator(name):
        if name not in alphabet:
            raise UnknownSymbol(f"{name!r} is not an alphabet letter")
        return PiElement.generator(alphabet, name)

    out = PiElement.identity(alphabet)
    for token in text.replace(",", " ").split():
        if token == "1":
            continue
        if "^" in token:
            name, _, exp = token.partition("^")
            out = out * (generator(name) ** int(exp))
        elif token in alphabet:
            out = out * generator(token)
        else:
            for ch in token:
                out = out * generator(ch)
    return out


# ---------------------------------------------------------------------------
# Pi and Pi': free products


class PiWord(_Element):
    """Reduced word in Pi (or Pi' when ``primed``) as alternating syllables.

    A syllable (orbit, e) means z_r^e for the orientation representative r of
    that orbit.  In Pi, fixed-point orbits have e = 1; in Pi' every orbit is
    an involution, so all exponents are 1.
    """

    __slots__ = ("primed",)

    def __init__(self, alphabet: Alphabet, syllables: Iterable[tuple[int, int]] = (),
                 primed: bool = False):
        self.alphabet = alphabet
        self.primed = primed
        self.nf = _reduce(syllables, self._torsion)

    @property
    def _name(self):
        return "Pi~prime" if self.primed else "Pi"

    @property
    def _torsion(self):
        """The orbits whose generator is an involution."""
        al = self.alphabet
        return range(len(al.orbits)) if self.primed else al.fixed_orbit_indices

    @classmethod
    def identity(cls, alphabet: Alphabet, primed: bool = False) -> "PiWord":
        return cls(alphabet, (), primed)

    @classmethod
    def generator(cls, alphabet: Alphabet, a: str, primed: bool = False) -> "PiWord":
        return cls(alphabet, ((alphabet.orbit_index(a), _sign(alphabet, a)),), primed)

    def __mul__(self, other: "PiWord") -> "PiWord":
        _check_same(self, other)
        if self.primed != other.primed:
            raise AlphabetMismatch("cannot mix Pi and Pi' words")
        return PiWord(self.alphabet, self.nf + other.nf, self.primed)

    def inverse(self) -> "PiWord":
        return PiWord(self.alphabet, reversed(self.tau_star().nf), self.primed)

    def tau_star(self) -> "PiWord":
        """The automorphism z_a -> z_tau(a)."""
        torsion = self._torsion
        return PiWord(self.alphabet, [(o, e if o in torsion else -e) for o, e in self.nf],
                      self.primed)

    def to_prime(self) -> "PiWord":
        return PiWord(self.alphabet, self.nf, primed=True)

    def abelianized(self) -> PiElement:
        """Image in pi = Pi / [Pi, Pi]."""
        exps = [0] * len(self.alphabet.orbits)
        for o, e in self.nf:
            exps[o] += e
        return PiElement(self.alphabet, exps)

    def __eq__(self, other):
        return super().__eq__(other) and self.primed == other.primed

    def __hash__(self):
        return hash((self.primed, self.nf))

    def format(self) -> str:
        al = self.alphabet
        return " ".join(_power(f"z_{al.orbit_rep(o)}", e) for o, e in self.nf) or "1"


# ---------------------------------------------------------------------------
# Pi~: the central extension


class PiTildeElement(_Element):
    """Element of Pi~ with ``nf = (central vector over orbits, Pi syllables)``.

    Multiplication reduces the base words in Pi and adds one central unit per
    cancelled pair z_a z_tau(a) (and per collapse z_a z_a = 1 at a fixed
    point).  With this bookkeeping c_a = z_a z_tau(a) is central and the
    projection to Pi is the plain base product; associativity is covered by
    property tests since the construction is ours, not the source theory's.
    """

    __slots__ = ()
    _name = "Pi~"

    def __init__(self, alphabet: Alphabet, central: Iterable[int], word: PiWord):
        self.alphabet = alphabet
        self.nf = (tuple(central), word.nf)
        assert not word.primed and len(self.nf[0]) == len(alphabet.orbits)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "PiTildeElement":
        return cls(alphabet, [0] * len(alphabet.orbits), PiWord.identity(alphabet))

    @classmethod
    def generator(cls, alphabet: Alphabet, a: str) -> "PiTildeElement":
        return cls(alphabet, [0] * len(alphabet.orbits), PiWord.generator(alphabet, a))

    def __mul__(self, other: "PiTildeElement") -> "PiTildeElement":
        _check_same(self, other)
        al = self.alphabet
        central = [x + y for x, y in zip(self.nf[0], other.nf[0])]
        stack = [list(s) for s in self.nf[1]]
        for orbit, e in other.nf[1]:
            while stack and stack[-1][0] == orbit:
                o, e0 = stack.pop()
                if al.orbit_is_fixed(orbit):
                    # e0 = e = 1; the pair collapses and contributes a c
                    central[orbit] += 1
                    e = 0
                else:
                    if e0 * e < 0:
                        central[orbit] += min(abs(e0), abs(e))
                    e = e0 + e
                if not e:
                    break
            else:
                if e:
                    stack.append([orbit, e])
                continue
            if e:
                stack.append([orbit, e])
        word = PiWord(al, tuple((o, e) for o, e in stack))
        assert word.nf == tuple((o, e) for o, e in stack), "base was already reduced"
        return PiTildeElement(al, central, word)

    def inverse(self) -> "PiTildeElement":
        # s(x) s(x^-1) = c^L(x) with L counting letters per orbit
        length = [0] * len(self.alphabet.orbits)
        for o, e in self.nf[1]:
            length[o] += abs(e)
        central = [-c - l for c, l in zip(self.nf[0], length)]
        return PiTildeElement(self.alphabet, central, self.project().inverse())

    def project(self) -> PiWord:
        return PiWord(self.alphabet, self.nf[1])

    def format(self) -> str:
        al = self.alphabet
        parts = [_power(f"c_{al.orbit_rep(i)}", c) for i, c in enumerate(self.nf[0]) if c]
        if self.nf[1]:
            parts.append(self.project().format())
        return " ".join(parts) or "1"


# ---------------------------------------------------------------------------
# Psi and its abelianization


class PsiElement(_Element):
    """Reduced word in Psi: alternating syllables (orbit, e, e_bullet).

    Each orbit contributes an abelian block generated by r and r. (bullet);
    free orbits give Z^2 blocks, fixed points (Z/2)^2 blocks.  A syllable is
    r^e r.^eb with (e, eb) != (0, 0) and adjacent syllables in distinct
    orbits.
    """

    __slots__ = ()
    _name = "Psi"

    def __init__(self, alphabet: Alphabet, syllables: Iterable[tuple[int, int, int]] = ()):
        self.alphabet = alphabet
        self.nf = _reduce(syllables, alphabet.fixed_orbit_indices)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "PsiElement":
        return cls(alphabet)

    @classmethod
    def generator(cls, alphabet: Alphabet, a: str, bullet: bool = False) -> "PsiElement":
        i, e = alphabet.orbit_index(a), _sign(alphabet, a)
        return cls(alphabet, ((i, 0, e) if bullet else (i, e, 0),))

    def __mul__(self, other: "PsiElement") -> "PsiElement":
        _check_same(self, other)
        return PsiElement(self.alphabet, self.nf + other.nf)

    def inverse(self) -> "PsiElement":
        return PsiElement(self.alphabet, reversed(self.tau_sharp().nf))

    def reverse(self) -> "PsiElement":
        """Anti-automorphism reading the monomial right to left (iota)."""
        return PsiElement(self.alphabet, reversed(self.nf))

    def kappa(self) -> "PsiElement":
        """Anti-automorphism swapping a <-> a. letterwise."""
        return PsiElement(self.alphabet, tuple((o, eb, e) for o, e, eb in reversed(self.nf)))

    def tau_sharp(self) -> "PsiElement":
        """Automorphism a -> tau(a), a. -> tau(a). ."""
        return PsiElement(self.alphabet, tuple((o, -e, -eb) for o, e, eb in self.nf))

    def deg(self) -> int:
        """Occurrences of bullet-free generators, with multiplicity."""
        return sum(abs(e) for _, e, _ in self.nf)

    def deg_bullet(self) -> int:
        return sum(abs(eb) for _, _, eb in self.nf)

    def format(self, sep: str = " ") -> str:
        al = self.alphabet
        return sep.join(p for o, e, eb in self.nf
                        for p in _psi_letters(al.orbit_rep(o), e, eb)) or "1"


class PsiAbElement(_Element):
    """Monomial of the commutative quotient Psi^ab: exponent pairs per orbit."""

    __slots__ = ()
    _name = "Psi^ab"

    def __init__(self, alphabet: Alphabet, exps: Iterable[tuple[int, int]]):
        self.alphabet = alphabet
        norm = []
        for i, (e, eb) in enumerate(exps):
            if alphabet.orbit_is_fixed(i):
                e, eb = e % 2, eb % 2
            norm.append((e, eb))
        self.nf = tuple(norm)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "PsiAbElement":
        return cls(alphabet, [(0, 0)] * len(alphabet.orbits))

    @classmethod
    def generator(cls, alphabet: Alphabet, a: str, bullet: bool = False) -> "PsiAbElement":
        exps = [[0, 0] for _ in alphabet.orbits]
        exps[alphabet.orbit_index(a)][1 if bullet else 0] = _sign(alphabet, a)
        return cls(alphabet, exps)

    def __mul__(self, other: "PsiAbElement") -> "PsiAbElement":
        _check_same(self, other)
        return PsiAbElement(self.alphabet,
                            [(e1 + e2, b1 + b2)
                             for (e1, b1), (e2, b2) in zip(self.nf, other.nf)])

    def inverse(self) -> "PsiAbElement":
        return PsiAbElement(self.alphabet, [(-e, -b) for e, b in self.nf])

    def __pow__(self, n: int) -> "PsiAbElement":
        return PsiAbElement(self.alphabet, [(n * e, n * b) for e, b in self.nf])

    def bar(self) -> "PsiAbElement":
        return self.inverse()

    tau_sharp = bar

    def reverse(self) -> "PsiAbElement":
        return self  # reversal is trivial in a commutative quotient

    def is_identity(self) -> bool:
        return not any(e or b for e, b in self.nf)

    def format(self) -> str:
        al = self.alphabet
        return " ".join(p for i, (e, eb) in enumerate(self.nf)
                        for p in _psi_letters(al.orbit_rep(i), e, eb)) or "1"


def psi_abelianize(x: PsiElement) -> PsiAbElement:
    exps = [[0, 0] for _ in x.alphabet.orbits]
    for o, e, eb in x.nf:
        exps[o][0] += e
        exps[o][1] += eb
    return PsiAbElement(x.alphabet, exps)


# ---------------------------------------------------------------------------
# Group rings


class GroupRingElement:
    """Finite integer combination of group normal forms (any group above)."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping | None = None):
        self.alphabet = alphabet
        self.terms = {g: c for g, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "GroupRingElement":
        return cls(alphabet)

    @classmethod
    def of(cls, g, coeff: int = 1) -> "GroupRingElement":
        return cls(g.alphabet, {g: coeff})

    def __add__(self, other):
        _check_same(self, other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return GroupRingElement(self.alphabet, out)

    def __neg__(self):
        return GroupRingElement(self.alphabet, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.alphabet, {g: c * other for g, c in self.terms.items()})
        _check_same(self, other)
        out: dict = {}
        for g, c in self.terms.items():
            for h, d in other.terms.items():
                gh = g * h
                out[gh] = out.get(gh, 0) + c * d
        return GroupRingElement(self.alphabet, out)

    __rmul__ = __mul__

    def map_terms(self, fn) -> "GroupRingElement":
        """Apply a group map termwise (linear extension)."""
        out: dict = {}
        for g, c in self.terms.items():
            h = fn(g)
            out[h] = out.get(h, 0) + c
        return GroupRingElement(self.alphabet, out)

    def reduce_mod(self, m: int) -> "GroupRingElement":
        return GroupRingElement(self.alphabet, {g: c % m for g, c in self.terms.items()})

    def aug(self) -> int:
        """Sum of coefficients."""
        return sum(self.terms.values())

    def coeff(self, g) -> int:
        return self.terms.get(g, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms, key=lambda g: g.sort_key())

    def key(self):
        return tuple((g.sort_key(), c) for g, c in
                     sorted(self.terms.items(), key=lambda t: t[0].sort_key()))

    def format(self) -> str:
        """Signed sum in lexicographic term order, e.g. ``2·b^-1 - b``."""
        parts = []
        for g in self.support():
            c = self.terms[g]
            mono = g.format()
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}·{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) or "0"

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms \
            and self.alphabet == other.alphabet

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Ring[{self.format()}]"


# ---------------------------------------------------------------------------
# Subgroups of pi


class SubgroupOfPi:
    """Subgroup of pi given by generators; membership is exact.

    The problem lifts to Z^(k+l): torsion coordinates get auxiliary columns
    2 e_i, after which membership is integer solvability of a linear system.
    """

    def __init__(self, alphabet: Alphabet, generators: Iterable[PiElement] = ()):
        self.alphabet = alphabet
        self.generators = tuple(generators)
        for g in self.generators:
            if g.alphabet != alphabet:
                raise AlphabetMismatch("subgroup generator over a different alphabet")
        n = len(alphabet.orbits)
        cols = [list(g.nf) for g in self.generators]
        for i in alphabet.fixed_orbit_indices:
            col = [0] * n
            col[i] = 2
            cols.append(col)
        # matrix with one row per orbit coordinate
        self._matrix = [[col[r] for col in cols] for r in range(n)] if cols else [[] for _ in range(n)]

    @classmethod
    def whole(cls, alphabet: Alphabet) -> "SubgroupOfPi":
        return cls(alphabet, [PiElement.generator(alphabet, a) for a in alphabet.orientation])

    @classmethod
    def trivial(cls, alphabet: Alphabet) -> "SubgroupOfPi":
        return cls(alphabet, ())

    def contains(self, x: PiElement) -> bool:
        if x.alphabet != self.alphabet:
            raise AlphabetMismatch("membership test across alphabets")
        if not self._matrix or not self._matrix[0]:
            return x.is_identity()
        return solve_integer(self._matrix, list(x.nf))

    def __repr__(self):
        gens = ", ".join(g.format() for g in self.generators) or "1"
        return f"SubgroupOfPi<{gens}>"


def subgroup_contains(h: SubgroupOfPi, x: PiElement) -> bool:
    return h.contains(x)
