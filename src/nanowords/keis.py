"""Free kei structure on the free group over Psi; characteristic sequences.

Requires a fixed-point-free involution.  The free group F on the set Psi
carries, for every orientation letter a, the operations

    a . x      letterwise left translation of the Psi indices,
    x *_a y  = y (a. x) (a. a y)^(-1)

and their unique extension to the letters tau(a):

    tau(a) . x        letterwise translation by a^(-1),
    x *_tau(a) y    = (a.^(-1) a^(-1) y)^(-1) (a.^(-1) x) y.

``CharSeq`` is the one type of an element of F: a freely reduced word of
``(sign, psi)`` terms.  Propagating the letter relations of a nanoword
through F sends the input generator to such a word, whose signed Psi
letters form the characteristic sequence; its term sum recovers the
path-sum invariant.
"""

from __future__ import annotations

from .errors import TauHasFixedPoint
from .groups import GroupRingElement, PsiElement
from .words import Alphabet, Nanoword


class CharSeq:
    """Freely reduced word in the free group F on the set Psi, as a tuple of
    ``(sign, psi)`` terms; the kei's output is the characteristic sequence."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms=()):
        self.alphabet = alphabet
        out: list[tuple[int, PsiElement]] = []
        for sign, psi in terms:
            if out and out[-1] == (-sign, psi):
                out.pop()
            else:
                out.append((sign, psi))
        self.terms = tuple(out)

    @classmethod
    def generator(cls, psi: PsiElement) -> "CharSeq":
        return cls(psi.alphabet, ((1, psi),))

    def __mul__(self, other: "CharSeq") -> "CharSeq":
        return CharSeq(self.alphabet, self.terms + other.terms)

    def inverse(self) -> "CharSeq":
        return CharSeq(self.alphabet, tuple((-sign, psi) for sign, psi in reversed(self.terms)))

    def translate(self, psi: PsiElement) -> "CharSeq":
        """Letterwise left action of psi on the generator indices."""
        return CharSeq(self.alphabet, tuple((sign, psi * base) for sign, base in self.terms))

    def term_sum(self) -> GroupRingElement:
        """Sum of the signed terms in the Psi group ring (equals lam'(w))."""
        out = GroupRingElement.zero(self.alphabet)
        for sign, psi in self.terms:
            out = out + GroupRingElement.of(psi, sign)
        return out

    def key(self):
        return tuple((s, p.sort_key()) for s, p in self.terms)

    def __eq__(self, other):
        return isinstance(other, CharSeq) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return format_charseq(self)


def _require_free(alphabet: Alphabet):
    if not alphabet.is_fixed_point_free:
        raise TauHasFixedPoint("the free kei needs a fixed-point-free involution")


def kei_act(a: str, x: CharSeq) -> CharSeq:
    """The translation action of the alphabet letter a on F."""
    al = x.alphabet
    _require_free(al)
    return x.translate(PsiElement.generator(al, a))


def kei_star(x: CharSeq, a: str, y: CharSeq) -> CharSeq:
    """x *_a y in F, by the orientation formula or its tau(a) extension."""
    al = x.alphabet
    _require_free(al)
    if al.rep(a) == a:
        ab = PsiElement.generator(al, a, bullet=True)
        aa = PsiElement.generator(al, a)
        return y * x.translate(ab) * y.translate(ab * aa).inverse()
    r = al.rep(a)  # a = tau(r)
    rb_inv = PsiElement.generator(al, r, bullet=True).inverse()
    r_inv = PsiElement.generator(al, r).inverse()
    return y.translate(rb_inv * r_inv).inverse() * x.translate(rb_inv) * y


def format_charseq(cs: CharSeq) -> str:
    if not cs.terms:
        return "(empty)"
    return ", ".join(("+" if s > 0 else "-") + p.format(sep="") for s, p in cs.terms)


def char_sequence(w: Nanoword) -> CharSeq:
    """Propagate x_0 = [1] through the letter relations; read off the output.

    First occurrences act by translation, second occurrences by *_a against
    the state just before the first occurrence.
    """
    _require_free(w.alphabet)
    states = [CharSeq.generator(PsiElement.identity(w.alphabet))]
    for pos, x in enumerate(w.word, start=1):
        a = w.proj[x]
        i = w.occurrences(x)[0]
        if pos == i:
            states.append(kei_act(a, states[pos - 1]))
        else:
            states.append(kei_star(states[pos - 1], a, states[i - 1]))
    return states[-1]


def charseq_inverse(cs: CharSeq) -> CharSeq:
    """(e_m tau(psi_m), ..., e_1 tau(psi_1)): the sequence of the inverse word."""
    return CharSeq(cs.alphabet, tuple((sign, psi.tau_sharp())
                                      for sign, psi in reversed(cs.terms)))
