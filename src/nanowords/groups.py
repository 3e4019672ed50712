"""Normal-form arithmetic in the groups and rings attached to an alphabet.

Five groups appear:

* ``pi``      -- abelian, generators {a} with a tau(a) = 1; so Z^k x (Z/2)^l.
* ``Pi``      -- free product: generators z_a with z_a z_tau(a) = 1.
* ``Pi'``     -- quotient of Pi by z_a^2 = 1: Pi over ``Alphabet.involutions``.
* ``Pi~``     -- central extension of Pi in which c_a = z_a z_tau(a) is
                 central instead of trivial; only gamma~ takes values in it.
* ``Psi``     -- generators a, a. with a a. = a. a and a tau(a) = a. tau(a). = 1;
                 a free product of one abelian block (Z^2 or (Z/2)^2) per orbit.

All but Pi~ come in two families with ``width`` generators per orbit: 1 for
pi and Pi, 2 (a, then a.) for Psi and its abelianization Psi^ab.  The normal
form ``nf`` of an ``_Abelian`` element is a flat exponent vector, that of a
``_Free`` element a tuple of reduced syllables ``(orbit, *exponents)``, and
exponents at fixed orbits are taken mod 2.  Equal normal forms over one
alphabet are equal elements.  Everything is stored on the orientation basis:
a generator outside alpha0 enters as exponent -1 of its orbit representative.

Each group class multiplies normal forms with one method ``_product``: an
``_Abelian`` product adds exponents, mod 2 at fixed orbits, and a ``_Free``
one reduces the concatenation.  Element products and group-ring products
both go through it, so a group-ring element over any of these groups is a
finite integer combination stored as ``{normal form: coefficient}``, and no
element object is built per product.
"""

from __future__ import annotations

from operator import add
from typing import Iterable

from .errors import AlphabetMismatch, ParseError, UnknownSymbol
from .intlinalg import solve_integer
from .words import Alphabet


def _same_alphabet(x, y) -> bool:
    return x.alphabet is y.alphabet or x.alphabet == y.alphabet


def _check_same(x, y):
    if type(x) is not type(y) or not _same_alphabet(x, y):
        raise AlphabetMismatch("operands live in different groups")


def _generator_block(width: int, alphabet: Alphabet, a: str, bullet: bool):
    """Orbit of ``a`` and the exponents of ``a`` (``a.`` when ``bullet``) on
    it: -1 outside alpha0, so +1 at a fixed letter, its own representative."""
    if a not in alphabet:
        raise UnknownSymbol(f"{a!r} is not an alphabet letter")
    exps = [0] * width
    exps[bullet] = 1 if alphabet.rep(a) == a else -1
    return alphabet.orbit_index(a), exps


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


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


class _Value:
    """Normal form ``nf`` over ``alphabet``; equal normal forms over one
    alphabet are equal values.  Subclasses set ``nf`` and supply either
    ``_blocks`` or their own ``format``."""

    __slots__ = ("alphabet", "nf")
    prefix = ""  # printed before every generator name

    def sort_key(self):
        return self.nf

    def format(self, sep: str = " ") -> str:
        """Product of generator powers, e.g. ``a^2 a.^-1 b.``; ``1`` if empty."""
        al = self.alphabet
        return sep.join(_power(f"{self.prefix}{al.orbit_rep(o)}{'.' * k}", e)
                        for o, exps in self._blocks()
                        for k, e in enumerate(exps) if e) or "1"

    def __eq__(self, other):
        return type(other) is type(self) and self.nf == other.nf and _same_alphabet(self, other)

    def __hash__(self):
        return hash(self.nf)

    def __repr__(self):
        return f"{self._name}[{self.format()}]"


class _Element(_Value):
    """Group element; subclasses supply ``_make_identity``, ``_make_generator``,
    ``_product`` and ``inverse``.  Elements are immutable, so ``identity`` and
    ``generator`` make each one once per alphabet and class and hand out that
    object afterwards."""

    __slots__ = ()

    @classmethod
    def _wrap(cls, alphabet: Alphabet, nf):
        """The element whose normal form is ``nf``, taken as given."""
        x = object.__new__(cls)
        x.alphabet, x.nf = alphabet, nf
        return x

    @classmethod
    def identity(cls, alphabet: Alphabet):
        return cls._shared(alphabet, None, False)

    @classmethod
    def generator(cls, alphabet: Alphabet, a: str, bullet: bool = False):
        """The generator ``a``, or ``a.`` when ``bullet``."""
        return cls._shared(alphabet, a, bullet)

    @classmethod
    def _shared(cls, alphabet: Alphabet, a: str | None, bullet: bool):
        """The element stored in ``alphabet`` for (class, a, bullet), made on
        the first request; ``a`` None is the identity.  An unknown letter
        raises before anything is stored."""
        table, key = alphabet._elements, (cls, a, bullet)
        x = table.get(key)
        if x is None:
            x = table[key] = (cls._make_identity(alphabet) if a is None
                              else cls._make_generator(alphabet, a, bullet))
        return x

    def __mul__(self, other):
        _check_same(self, other)
        return self._wrap(self.alphabet, self._product(self.alphabet, self.nf, other.nf))

    def is_identity(self) -> bool:
        return self.nf == self.identity(self.alphabet).nf

    def __pow__(self, n: int):
        base = self if n >= 0 else self.inverse()
        out = self.identity(self.alphabet)
        for _ in range(abs(n)):
            out = out * base
        return out


# ---------------------------------------------------------------------------
# pi and Psi^ab: exponent vectors


class _Abelian(_Element):
    """Commutative element: ``width`` exponents per orbit in one flat vector,
    which raises ``AlphabetMismatch`` unless it has that length."""

    __slots__ = ()
    width = 1

    def __init__(self, alphabet: Alphabet, exps: Iterable[int]):
        self.alphabet = alphabet
        nf, w, n = list(exps), self.width, len(alphabet.orbits)
        if len(nf) != w * n:
            raise AlphabetMismatch(f"{self._name} takes {w} x {n} exponents, not {len(nf)}")
        self.nf = self._product(alphabet, nf, [0] * len(nf))  # the normal form of nf * 1

    @classmethod
    def _product(cls, alphabet: Alphabet, g, h) -> tuple:
        """Exponents add, mod 2 at fixed orbits."""
        fixed = alphabet.fixed_orbit_indices
        if not fixed:
            return tuple(map(add, g, h))
        exps = list(map(add, g, h))
        w = cls.width
        for i in fixed:
            for k in range(w * i, w * i + w):
                exps[k] &= 1
        return tuple(exps)

    @classmethod
    def _make_identity(cls, alphabet: Alphabet):
        return cls(alphabet, [0] * (cls.width * len(alphabet.orbits)))

    @classmethod
    def _make_generator(cls, alphabet: Alphabet, a: str, bullet: bool):
        w = cls.width
        i, block = _generator_block(w, alphabet, a, bullet)
        exps = [0] * (w * len(alphabet.orbits))
        exps[w * i:w * i + w] = block
        return cls(alphabet, exps)

    def inverse(self):
        return type(self)(self.alphabet, [-e for e in self.nf])

    def __pow__(self, n: int):
        return type(self)(self.alphabet, [n * e for e in self.nf])

    def _blocks(self):
        w = self.width
        return ((i, self.nf[w * i:w * i + w]) for i in range(len(self.alphabet.orbits)))


class PiElement(_Abelian):
    """Element of pi on the orientation basis: one exponent per orbit.

    Free orbits carry a Z exponent, fixed points a Z/2 bit.
    """

    __slots__ = ()
    _name = "pi"

    def degree(self) -> int:
        """Word length in the generators {a}: |free exponents| + fixed bits."""
        return sum(abs(e) for e in self.nf)


def parse_pi(alphabet: Alphabet, text: str) -> PiElement:
    """Parse ``a^2 b`` or condensed ``ab`` (single-char letters) into pi.

    Raises ``UnknownSymbol`` naming the first letter outside the alphabet,
    and ``ParseError`` naming a token whose exponent is not an integer.
    """
    out = PiElement.identity(alphabet)
    for token in text.replace(",", " ").split():
        if token == "1":
            continue
        if "^" in token:
            name, _, exp = token.partition("^")
            try:
                power = int(exp)
            except ValueError:
                raise ParseError(f"exponent of {token!r} is not an integer") from None
            out = out * (PiElement.generator(alphabet, name) ** power)
        elif token in alphabet:
            out = out * PiElement.generator(alphabet, token)
        else:
            for ch in token:
                out = out * PiElement.generator(alphabet, ch)
    return out


class PsiAbElement(_Abelian):
    """Monomial of the commutative quotient Psi^ab: per orbit r, the
    exponents of r and r. side by side."""

    __slots__ = ()
    _name = "Psi^ab"
    width = 2

    tau_sharp = _Abelian.inverse

    def reverse(self) -> "PsiAbElement":
        return self  # reversal is trivial in a commutative quotient

    def sort_key(self):
        """Exponent pairs per orbit, the key layout of the pinned goldens."""
        return tuple(zip(self.nf[::2], self.nf[1::2]))


# ---------------------------------------------------------------------------
# Pi, Pi' and Psi: free products


class _Free(_Element):
    """Reduced word: syllables ``(orbit, *exps)`` with ``width`` exponents,
    not all zero, and adjacent syllables in distinct orbits."""

    __slots__ = ()
    width = 1
    abelian: type  # class of the abelianization

    def __init__(self, alphabet: Alphabet, syllables: Iterable[tuple] = ()):
        self.alphabet = alphabet
        self.nf = _reduce(syllables, alphabet.fixed_orbit_indices)

    @classmethod
    def _make_identity(cls, alphabet: Alphabet):
        return cls(alphabet)

    @classmethod
    def _make_generator(cls, alphabet: Alphabet, a: str, bullet: bool):
        i, block = _generator_block(cls.width, alphabet, a, bullet)
        return cls(alphabet, ((i, *block),))

    @staticmethod
    def _product(alphabet: Alphabet, g: tuple, h: tuple) -> tuple:
        return _reduce(g + h, alphabet.fixed_orbit_indices)

    def inverse(self):
        return type(self)(self.alphabet, reversed(self.tau_star().nf))

    def tau_star(self):
        """The automorphism sending every generator of a to that of tau(a)."""
        return type(self)(self.alphabet, [(o, *[-e for e in exps]) for o, *exps in self.nf])

    def abelianized(self):
        """Image in the commutative quotient (pi for Pi, Psi^ab for Psi)."""
        w = self.width
        exps = [0] * (w * len(self.alphabet.orbits))
        for o, *block in self.nf:
            for k, e in enumerate(block, w * o):
                exps[k] += e
        return self.abelian(self.alphabet, exps)

    def _blocks(self):
        return ((o, exps) for o, *exps in self.nf)


class PiWord(_Free):
    """Reduced word in Pi as alternating syllables.

    A syllable (orbit, e) means z_r^e for the orientation representative r of
    that orbit; fixed-point orbits have e = 1.
    """

    __slots__ = ()
    _name = "Pi"
    prefix = "z_"
    abelian = PiElement

    def to_prime(self) -> "PiWord":
        """Image in Pi': the same syllables over ``alphabet.involutions``."""
        return PiWord(self.alphabet.involutions, self.nf)


class PsiElement(_Free):
    """Reduced word in Psi: alternating syllables (orbit, e, e_bullet).

    Each orbit contributes an abelian block generated by r and r. (bullet);
    free orbits give Z^2 blocks, fixed points (Z/2)^2 blocks.  A syllable is
    r^e r.^eb.
    """

    __slots__ = ()
    _name = "Psi"
    width = 2
    abelian = PsiAbElement

    tau_sharp = _Free.tau_star

    def reverse(self) -> "PsiElement":
        """Anti-automorphism reading the monomial right to left (iota)."""
        return PsiElement(self.alphabet, reversed(self.nf))

    def kappa(self) -> "PsiElement":
        """Anti-automorphism swapping a <-> a. letterwise."""
        return PsiElement(self.alphabet, tuple((o, eb, e) for o, e, eb in reversed(self.nf)))

    def deg(self) -> int:
        """Occurrences of bullet-free generators, with multiplicity."""
        return sum(abs(e) for _, e, _ in self.nf)

    def deg_bullet(self) -> int:
        return sum(abs(eb) for _, _, eb in self.nf)


def psi_abelianize(x: PsiElement) -> PsiAbElement:
    return x.abelianized()


# ---------------------------------------------------------------------------
# Pi~: values of gamma~


class PiTildeElement(_Value):
    """Value of gamma~ in Pi~, ``nf = (central vector over orbits, Pi syllables)``.

    ``PiTildeElement(g)`` lifts a value ``g`` of gamma: each second occurrence
    of a letter A contributes the inverse of z_|A| instead of z_tau|A|, which
    differs from it by the central c_|A|.  A letter puts two generators on its
    orbit o, the inverse adds -1 at o, and each pair that cancels in the
    reduction of ``g`` adds +1, so the entry at o is -1/2 the sum of |e| over
    the syllables (o, e) of ``g``.  Nothing multiplies in Pi~, so the class
    has no product.
    """

    __slots__ = ()
    _name = "Pi~"

    def __init__(self, g: PiWord):
        self.alphabet = g.alphabet
        central = [0] * len(g.alphabet.orbits)
        for o, e in g.nf:
            central[o] -= abs(e)
        self.nf = (tuple(c // 2 for c in central), g.nf)

    def is_identity(self) -> bool:
        return not (any(self.nf[0]) or self.nf[1])

    def project(self) -> PiWord:
        return PiWord(self.alphabet, self.nf[1])

    def format(self) -> str:
        al = self.alphabet
        parts = [_power(f"c_{al.orbit_rep(i)}", c) for i, c in enumerate(self.nf[0]) if c]
        if self.nf[1]:
            parts.append(self.project().format())
        return " ".join(parts) or "1"


# ---------------------------------------------------------------------------
# Group rings


class GroupRingElement:
    """Finite integer combination of the elements of one group above.

    ``terms`` maps normal forms of elements of the class ``group`` to their
    coefficients, none of them zero; ``items`` gives the elements themselves.
    ``zero`` has no group yet, so it adds to and multiplies with elements of
    any group.
    """

    __slots__ = ("alphabet", "group", "terms")

    def __init__(self, alphabet: Alphabet, group: type | None = None, terms: dict | None = None):
        """``terms`` is taken over, not copied: its zero coefficients are deleted."""
        self.alphabet, self.group = alphabet, group
        self.terms = {} if terms is None else terms
        if 0 in self.terms.values():
            for g in [g for g, c in self.terms.items() if not c]:
                del self.terms[g]

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "GroupRingElement":
        return cls(alphabet)

    @classmethod
    def of(cls, g, coeff: int = 1) -> "GroupRingElement":
        return cls(g.alphabet, type(g), {g.nf: coeff})

    def _group_with(self, other) -> type | None:
        """The group of a sum or product with ``other``."""
        if type(other) is GroupRingElement and _same_alphabet(self, other):
            if self.group is other.group or other.group is None:
                return self.group
            if self.group is None:
                return other.group
        raise AlphabetMismatch("operands live in different group rings")

    def __add__(self, other):
        group = self._group_with(other)
        out = dict(self.terms)
        get = out.get
        for g, c in other.terms.items():
            out[g] = get(g, 0) + c
        return GroupRingElement(self.alphabet, group, out)

    def __neg__(self):
        return GroupRingElement(self.alphabet, self.group, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.alphabet, self.group,
                                    {g: c * other for g, c in self.terms.items()})
        group, al, out = self._group_with(other), self.alphabet, {}
        if self.terms and other.terms:
            product, get = group._product, out.get
            for g, c in self.terms.items():
                for h, d in other.terms.items():
                    gh = product(al, g, h)
                    out[gh] = get(gh, 0) + c * d
        return GroupRingElement(al, group, out)

    __rmul__ = __mul__

    def items(self):
        """The pairs (element, coefficient), in no particular order."""
        return ((self.group._wrap(self.alphabet, g), c) for g, c in self.terms.items())

    def map_terms(self, fn) -> "GroupRingElement":
        """Apply a group map termwise (linear extension)."""
        group, out = None, {}
        for g, c in self.items():
            h = fn(g)
            group = type(h)
            out[h.nf] = out.get(h.nf, 0) + c
        return GroupRingElement(self.alphabet, group, out)

    def reduce_mod(self, m: int) -> "GroupRingElement":
        return GroupRingElement(self.alphabet, self.group,
                                {g: c % m for g, c in self.terms.items()})

    def aug(self) -> int:
        """Sum of coefficients."""
        return sum(self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def _sorted(self) -> list:
        return sorted(self.items(), key=lambda t: t[0].sort_key())

    def key(self):
        return tuple((g.sort_key(), c) for g, c in self._sorted())

    def format(self) -> str:
        """Signed sum in lexicographic term order, e.g. ``2·b^-1 - b``."""
        parts = []
        for g, c in self._sorted():
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
        return (isinstance(other, GroupRingElement) and self.terms == other.terms
                and (self.group is other.group or not self.terms) and _same_alphabet(self, other))

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
        self._matrix = [[col[r] for col in cols] for r in range(n)]

    @classmethod
    def whole(cls, alphabet: Alphabet) -> "SubgroupOfPi":
        return cls(alphabet, [PiElement.generator(alphabet, a) for a in alphabet.orientation])

    @classmethod
    def trivial(cls, alphabet: Alphabet) -> "SubgroupOfPi":
        return cls(alphabet, ())

    def contains(self, x: PiElement) -> bool:
        if x.alphabet != self.alphabet:
            raise AlphabetMismatch("membership test across alphabets")
        return solve_integer(self._matrix, list(x.nf))

    def __repr__(self):
        gens = ", ".join(g.format() for g in self.generators) or "1"
        return f"SubgroupOfPi<{gens}>"
