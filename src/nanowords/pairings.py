"""Linking forms, alpha-pairings, compression to primitive pairings.

The linking form lk_w is a pi-valued table on the letters of a nanoword;
with the interlacement n_w it gives the alpha-pairing, which adds a base
point s.  Compression deletes annihilating elements and twin pairs until none
remain; the primitive result is unique up to isomorphism and is the main
length-4/6 fingerprint.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import add, sub

from .groups import PiElement
from .words import Alphabet, Letter, Nanoword
from .interlacement import _classes_of, interlacement


def linking_form(w: Nanoword) -> dict[tuple[Letter, Letter], PiElement]:
    """The entries of lk_w other than the identity: lk(D,E) = (DoE)(EoD)^{-1}.

    DoE multiplies |F| over letters F with exactly one occurrence inside
    D's span and whose second occurrence lies inside E's span.  One pass over
    the letters F adds the exponent vector of |F| to DoE for every ordered
    pair (D, E) whose spans hold its first and its second occurrence; lk is
    read only on the pairs that pass touches and their reverses.
    """
    al, letters = w.alphabet, w.letters
    zero = PiElement.identity(al).nf
    circ: dict = {}
    for f in letters:
        i_f, j_f = w.occurrences(f)
        gen = PiElement.generator(al, w.proj[f]).nf
        outer = [d for d in letters if w.occurrences(d)[0] < i_f < w.occurrences(d)[1]]
        for e in letters:
            if w.occurrences(e)[0] < j_f < w.occurrences(e)[1]:
                for d in outer:
                    circ[d, e] = tuple(map(add, circ.get((d, e), zero), gen))
    lk = {}
    for d, e in circ:
        g = PiElement(al, map(sub, circ[d, e], circ.get((e, d), zero)))
        if not g.is_identity():
            lk[d, e], lk[e, d] = g, g.inverse()
    return lk


class _BasePoint:
    """The distinguished element s; a sentinel so no letter can collide."""

    __slots__ = ()

    def __repr__(self):
        return "s"


BASEPOINT = _BasePoint()


class AlphaPairing:
    """Base set {s} + letters with a skew-symmetric pi-valued pairing b."""

    def __init__(self, alphabet: Alphabet, letters, proj, b: dict):
        self.alphabet = alphabet
        self.letters = tuple(letters)
        self.proj = dict(proj)
        self._b = {k: v for k, v in b.items() if not v.is_identity()}

    S = BASEPOINT

    def b(self, x, y) -> PiElement:
        return self._b.get((x, y), PiElement.identity(self.alphabet))

    def elements(self):
        return (self.S,) + self.letters

    def restrict(self, keep) -> "AlphaPairing":
        keep = tuple(keep)
        kept = set(keep) | {self.S}
        return AlphaPairing(self.alphabet, keep,
                            {x: self.proj[x] for x in keep},
                            {(x, y): v for (x, y), v in self._b.items()
                             if x in kept and y in kept})

    def is_annihilating(self, a) -> bool:
        return all(self.b(a, c).is_identity() for c in self.elements())

    def are_twins(self, a, b) -> bool:
        if a == b or self.proj[a] != self.alphabet.tau(self.proj[b]):
            return False
        return all(self.b(a, c) == self.b(b, c) for c in self.elements())

    def matrix_rows(self):
        elems = self.elements()
        return [[self.b(x, y).format() for y in elems] for x in elems]

    def __repr__(self):
        elems = self.elements()
        head = " ".join(str(e) for e in elems)
        rows = "\n".join("  " + "  ".join(row) for row in self.matrix_rows())
        return f"AlphaPairing[{head}]\n{rows}"


def linking_pairing(w: Nanoword) -> AlphaPairing:
    """The alpha-pairing of w: b(A,s) = [A]_w = prod_C |C|^{n(A,C)} and
    b(A,B) = lk(A,B)^2 |A|^{n(A,B)} |B|^{n(A,B)}, with n = n_w.

    b(A,B) is built as the exponent vector 2 lk(A,B) + n(A,B)(u_|A| + u_|B|),
    u_v the vector of the generator v, and only where n or lk is not trivial;
    ``PiElement`` reduces it mod 2 at the fixed orbits.
    """
    al, proj = w.alphabet, w.proj
    n, lk = interlacement(w), linking_form(w)
    zero = PiElement.identity(al).nf
    u = {a: PiElement.generator(al, proj[a]).nf for a in w.letters}
    b = {}
    for a, col in _classes_of(al, w.letters, proj, n).items():
        b[a, BASEPOINT], b[BASEPOINT, a] = col, col.inverse()
    for a, c in n.keys() | lk.keys():
        e = n.get((a, c), 0)
        l = lk[a, c].nf if (a, c) in lk else zero
        b[a, c] = PiElement(al, [2 * x + e * (y + z) for x, y, z in zip(l, u[a], u[c])])
    return AlphaPairing(al, w.letters, proj, b)


def compress(p: AlphaPairing, rng=None) -> AlphaPairing:
    """Delete annihilating elements and twin pairs until primitive.

    The result is unique up to isomorphism whatever the deletion order; pass
    ``rng`` to randomize the order (used by the confluence tests).
    """
    cur = p
    while True:
        moves = []
        for a in cur.letters:
            if cur.is_annihilating(a):
                moves.append(("ann", a))
        for a, b in itertools.combinations(cur.letters, 2):
            if cur.are_twins(a, b):
                moves.append(("twin", a, b))
        if not moves:
            return cur
        move = rng.choice(moves) if rng is not None else moves[0]
        drop = set(move[1:])
        cur = cur.restrict([x for x in cur.letters if x not in drop])


def canonical_pairing_key(p: AlphaPairing):
    """Hashable form of a pairing, equal exactly for isomorphic pairings.

    Individualization-refinement (McKay, "Practical graph isomorphism"):
    split letter classes by projection and b-values until stable, branch on
    the first non-singleton class and keep the least leaf, the pairing in
    leaf order with s first.  A leaf equal to the first leaf is an
    automorphism, so the rest of its branch off the first path is pruned.
    """
    elems = range(len(p.letters) + 1)       # 0 is s
    keys = [[p.b(x, y).sort_key() for y in p.elements()] for x in p.elements()]
    proj = [None, *(p.proj[a] for a in p.letters)]
    first = best = None

    def refine(cells):
        while True:
            where = {x: i for i, cell in enumerate(cells) for x in cell}
            split: dict = {}
            for x, i in where.items():
                sig = (proj[x], tuple(sorted((where.get(y, -1), keys[x][y], keys[y][x])
                                             for y in elems))) if len(cells[i]) > 1 else ()
                split.setdefault((i, sig), []).append(x)
            if len(split) == len(cells):
                return cells
            cells = [split[k] for k in sorted(split)]

    def search(cells, on_first: bool) -> bool:
        """Explore below ``cells``; True asks the caller to prune its branch."""
        nonlocal first, best
        cells = refine(cells)
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is None:
            order = [0, *(cell[0] for cell in cells)]
            leaf = (tuple(proj[x] for x in order[1:]),
                    tuple(tuple(keys[x][y] for y in order) for x in order))
            if leaf == first:
                return True
            first = first or leaf
            best = min(best or leaf, leaf)
            return False
        for k, v in enumerate(cells[i]):
            child = cells[:i] + [[v], [x for x in cells[i] if x != v]] + cells[i + 1:]
            if search(child, on_first and k == 0) and not on_first:
                return True
        return False

    search([list(elems)[1:]] if p.letters else [], True)
    return best


# ---------------------------------------------------------------------------
# Homology invariants of pairings


def rho(p: AlphaPairing) -> int:
    """card(S_*) - 1 of the primitive representative."""
    return len(compress(p).letters)


def rho_ax(p: AlphaPairing) -> dict[tuple[str, PiElement], int]:
    return _rho_ax_primitive(compress(p))


def _rho_ax_primitive(c: AlphaPairing) -> dict[tuple[str, PiElement], int]:
    """rho_ax of a pairing that is already primitive."""
    return dict(Counter((c.proj[a], c.b(a, AlphaPairing.S)) for a in c.letters))
