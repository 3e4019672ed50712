"""Self-linking classes, the self-linking section (of a nanoword, or read off
an alpha-pairing), and norm bounds.

For each alphabet letter, the classes of its nanoword letters add up in the
group ring of pi; the homotopy-invariant section stores, per orientation
letter, the mod-2 class at fixed points and the difference [a] - [tau(a)]
on free orbits.  The degree of the monomials occurring bounds from below
half the minimal length in the homotopy class.
"""

from __future__ import annotations

from .errors import UnknownSymbol
from .groups import GroupRingElement
from .words import Nanoword
from .interlacement import letter_classes
from .pairings import AlphaPairing, linking_pairing, rho


class SelfLinkSection:
    """Map from orientation letters to Zpi (coefficients mod 2 at fixed points)."""

    def __init__(self, alphabet, values: dict[str, GroupRingElement]):
        self.alphabet = alphabet
        self.values = values

    def value(self, a: str) -> GroupRingElement:
        """Value at any alphabet letter, using u(tau(a)) = -u(a)."""
        r = self.alphabet.rep(a)
        v = self.values[r]
        return v if a == r else -v

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    def __add__(self, other):
        sums = {a: v + other.values[a] for a, v in self.values.items()}
        return SelfLinkSection(self.alphabet, {
            a: v.reduce_mod(2) if self.alphabet.is_fixed(a) else v for a, v in sums.items()})

    def key(self):
        return tuple((a, self.values[a].key()) for a in self.alphabet.orientation)

    def __eq__(self, other):
        return isinstance(other, SelfLinkSection) and self.key() == other.key()

    def __repr__(self):
        return "\n".join(format_section_line(self, a) for a in self.alphabet.orientation)


def format_section_line(u: SelfLinkSection, a: str) -> str:
    suffix = " (mod 2)" if u.alphabet.is_fixed(a) else ""
    return f"u({a}) = {u.values[a].format()}{suffix}"


def _value_sums(alphabet, classes) -> dict[str, GroupRingElement]:
    """The nontrivial classes of ``(letter value, class)`` pairs summed per
    alphabet letter."""
    sums = {a: GroupRingElement.zero(alphabet) for a in alphabet.letters}
    for a, cls in classes:
        if not cls.is_identity():
            sums[a] = sums[a] + GroupRingElement.of(cls)
    return sums


def _word_classes(w: Nanoword):
    return ((w.proj[x], cls) for x, cls in letter_classes(w).items())


def self_link_class(w: Nanoword, a: str) -> GroupRingElement:
    """[a]_w: sum of the nontrivial classes of letters projecting to ``a``."""
    if a not in w.alphabet:
        raise UnknownSymbol(f"{a!r} is not an alphabet letter")
    return _value_sums(w.alphabet, _word_classes(w))[a]


def section_of(alphabet, classes) -> SelfLinkSection:
    """The section from ``(letter value, class)`` pairs: the per-value sums,
    mod 2 at fixed points and [a] - [tau a] on free orbits."""
    sums = _value_sums(alphabet, classes)
    return SelfLinkSection(alphabet, {
        a: sums[a].reduce_mod(2) if alphabet.is_fixed(a) else sums[a] - sums[alphabet.tau(a)]
        for a in alphabet.orientation})


def self_link_function(w: Nanoword) -> SelfLinkSection:
    return section_of(w.alphabet, _word_classes(w))


def pairing_u(p: AlphaPairing) -> SelfLinkSection:
    """The self-linking section read off b(., s); equals u^w for p = p^w."""
    return section_of(p.alphabet, ((p.proj[x], p.b(x, p.S)) for x in p.letters))


def norm_lower_bound(w: Nanoword) -> int:
    """max(1 + top monomial degree of u, rho of the primitive pairing)."""
    u = self_link_function(w)
    deg_bound = 0
    for v in u.values.values():
        for g, _ in v.items():
            deg_bound = max(deg_bound, 1 + g.degree())
    return max(deg_bound, rho(linking_pairing(w)))
