"""Free kei structure on the free group over Psi; characteristic sequences.

Requires a fixed-point-free involution.  The free group F on the set Psi
carries, for every orientation letter a, the operations

    a . x      letterwise left translation of the Psi indices,
    x *_a y  = y (a. x) (a. a y)^(-1)

and their unique extension to the letters tau(a):

    tau(a) . x        letterwise translation by a^(-1),
    x *_tau(a) y    = (a.^(-1) a^(-1) y)^(-1) (a.^(-1) x) y.

Propagating the letter relations of a nanoword through F sends the input
generator to a reduced word whose signed Psi letters form the characteristic
sequence; its term sum recovers the path-sum invariant.
"""

from __future__ import annotations

from .errors import TauHasFixedPoint
from .groups import GroupRingElement, PsiElement
from .words import Alphabet, Nanoword


class FElement:
    """Freely reduced word in the free group generated by the set Psi."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters=()):
        self.alphabet = alphabet
        out: list[tuple[PsiElement, int]] = []
        for psi, sign in letters:
            if out and out[-1][0] == psi and out[-1][1] == -sign:
                out.pop()
            else:
                out.append((psi, sign))
        self.letters = tuple(out)

    @classmethod
    def generator(cls, psi: PsiElement, sign: int = 1) -> "FElement":
        return cls(psi.alphabet, ((psi, sign),))

    def __mul__(self, other: "FElement") -> "FElement":
        return FElement(self.alphabet, self.letters + other.letters)

    def inverse(self) -> "FElement":
        return FElement(self.alphabet,
                        tuple((psi, -sign) for psi, sign in reversed(self.letters)))

    def translate(self, psi: PsiElement) -> "FElement":
        """Letterwise left action of psi on the generator indices."""
        return FElement(self.alphabet,
                        tuple((psi * base, sign) for base, sign in self.letters))

    def __eq__(self, other):
        return isinstance(other, FElement) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        body = " ".join(("" if s > 0 else "~") + f"[{p.format()}]"
                        for p, s in self.letters)
        return f"F<{body or '1'}>"


def _require_free(alphabet: Alphabet):
    if not alphabet.is_fixed_point_free:
        raise TauHasFixedPoint("the free kei needs a fixed-point-free involution")


def kei_act(a: str, x: FElement) -> FElement:
    """The translation action of the alphabet letter a on F."""
    al = x.alphabet
    _require_free(al)
    return x.translate(PsiElement.generator(al, a))


def kei_star(x: FElement, a: str, y: FElement) -> FElement:
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


class CharSeq:
    """Reduced signed sequence of Psi elements; the image of the kei output."""

    def __init__(self, alphabet: Alphabet, terms):
        self.alphabet = alphabet
        self.terms = tuple(terms)  # (sign, PsiElement)

    @classmethod
    def from_f(cls, x: FElement) -> "CharSeq":
        return cls(x.alphabet, tuple((sign, psi) for psi, sign in x.letters))

    def term_sum(self) -> GroupRingElement:
        """Sum of the signed terms in the Psi group ring (equals lam'(w))."""
        out = GroupRingElement.zero(self.alphabet)
        for sign, psi in self.terms:
            out = out + GroupRingElement.of(psi, sign)
        return out

    def key(self):
        return tuple((s, p.sort_key()) for s, p in self.terms)

    def __eq__(self, other):
        return isinstance(other, CharSeq) and self.key() == other.key()

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return format_charseq(self)


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
    states = [FElement.generator(PsiElement.identity(w.alphabet))]
    for pos, x in enumerate(w.word, start=1):
        a = w.proj[x]
        i = w.occurrences(x)[0]
        if pos == i:
            states.append(kei_act(a, states[pos - 1]))
        else:
            states.append(kei_star(states[pos - 1], a, states[i - 1]))
    return CharSeq.from_f(states[-1])


def charseq_inverse(cs: CharSeq) -> CharSeq:
    """(e_m tau(psi_m), ..., e_1 tau(psi_1)): the sequence of the inverse word."""
    rev = tuple((sign, psi.tau_sharp()) for sign, psi in reversed(cs.terms))
    return CharSeq.from_f(FElement(cs.alphabet,
                                   tuple((psi, sign) for sign, psi in rev)))
