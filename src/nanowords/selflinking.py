"""Self-linking classes, the self-linking section, and norm bounds.

For each alphabet letter, the classes of its nanoword letters add up in the
group ring of pi; the homotopy-invariant section stores, per orientation
letter, the mod-2 class at fixed points and the difference [a] - [tau(a)]
on free orbits.  The degree of the monomials occurring bounds from below
half the minimal length in the homotopy class.
"""

from __future__ import annotations

from .groups import GroupRingElement, PiElement
from .words import Nanoword
from .interlacement import letter_classes


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
        return SelfLinkSection(self.alphabet, {
            a: _normalize(self.alphabet, a, self.values[a] + other.values[a])
            for a in self.values})

    def __neg__(self):
        return SelfLinkSection(self.alphabet,
                               {a: _normalize(self.alphabet, a, -v)
                                for a, v in self.values.items()})

    def key(self):
        return tuple((a, self.values[a].key()) for a in self.alphabet.orientation)

    def __eq__(self, other):
        return isinstance(other, SelfLinkSection) and self.key() == other.key()

    def __repr__(self):
        return "\n".join(format_section_line(self, a) for a in self.alphabet.orientation)


def format_section_line(u: SelfLinkSection, a: str) -> str:
    suffix = " (mod 2)" if u.alphabet.is_fixed(a) else ""
    return f"u({a}) = {u.values[a].format()}{suffix}"


def _normalize(alphabet, a, val: GroupRingElement) -> GroupRingElement:
    return val.reduce_mod(2) if alphabet.is_fixed(a) else val


def self_link_class(w: Nanoword, a: str) -> GroupRingElement:
    """[a]_w: sum of the nontrivial classes of letters projecting to ``a``."""
    out = GroupRingElement.zero(w.alphabet)
    for x, cls in letter_classes(w).items():
        if w.proj[x] == a and not cls.is_identity():
            out = out + GroupRingElement.of(cls)
    return out


def section_of(alphabet, classes) -> SelfLinkSection:
    """The section from ``(letter value, class)`` pairs: the nontrivial classes
    summed per value, mod 2 at fixed points and [a] - [tau a] on free orbits."""
    sums: dict[str, GroupRingElement] = {a: GroupRingElement.zero(alphabet)
                                         for a in alphabet.letters}
    for a, cls in classes:
        if not cls.is_identity():
            sums[a] = sums[a] + GroupRingElement.of(cls)
    return SelfLinkSection(alphabet, {
        a: sums[a].reduce_mod(2) if alphabet.is_fixed(a) else sums[a] - sums[alphabet.tau(a)]
        for a in alphabet.orientation})


def self_link_function(w: Nanoword) -> SelfLinkSection:
    return section_of(w.alphabet, ((w.proj[x], cls) for x, cls in letter_classes(w).items()))


# ---------------------------------------------------------------------------
# The skew-symmetry predicate


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
        c = va.coeff(one)
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


def norm_lower_bound(w: Nanoword) -> int:
    """max(1 + top monomial degree of u, rho of the primitive pairing)."""
    from .pairings import linking_pairing, rho

    u = self_link_function(w)
    deg_bound = 0
    for v in u.values.values():
        for g, _ in v.items():
            deg_bound = max(deg_bound, 1 + g.degree())
    return max(deg_bound, rho(linking_pairing(w)))
