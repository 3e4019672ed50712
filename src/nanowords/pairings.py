"""Linking forms, alpha-pairings, compression to primitive pairings.

An alpha-form carries the interlacement matrix and a pi-valued linking
pairing on the letters of a nanoword; the derived alpha-pairing adds a base
point s and forgets squares.  Compression deletes annihilating elements and
twin pairs until none remain; the primitive result is unique up to
isomorphism and is the main length-4/6 fingerprint.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .errors import PreconditionViolated
from .groups import PiElement
from .selflinking import SelfLinkSection, section_of
from .words import Alphabet, Letter, Nanoword
from .interlacement import interlacement


class AlphaForm:
    """Letter set with skew-symmetric n (ints) and l (pi-valued) pairings."""

    def __init__(self, alphabet: Alphabet, letters, proj, n: dict, l: dict):
        self.alphabet = alphabet
        self.letters = tuple(letters)
        self.proj = dict(proj)
        self._n = dict(n)
        self._l = dict(l)

    def n(self, a, b) -> int:
        return self._n.get((a, b), 0)

    def l(self, a, b) -> PiElement:
        return self._l.get((a, b), PiElement.identity(self.alphabet))

    def check_skew(self):
        one = PiElement.identity(self.alphabet)
        for a in self.letters:
            assert self.n(a, a) == 0 and self.l(a, a) == one
            for b in self.letters:
                assert self.n(a, b) == -self.n(b, a)
                assert (self.l(a, b) * self.l(b, a)) == one


def linking_form(w: Nanoword) -> AlphaForm:
    """The (letters, n_w, lk_w) form with lk(D,E) = (DoE)(EoD)^{-1}.

    DoE multiplies |F| over letters F with exactly one occurrence inside
    D's span and whose second occurrence lies inside E's span.  One pass over
    the letters F builds DoE for every ordered pair: F multiplies |F| into
    each pair (D, E) whose spans hold its first and its second occurrence.
    """
    al, letters = w.alphabet, w.letters
    occ = {x: w.occurrences(x) for x in letters}
    one = PiElement.identity(al)
    circ: dict = {}
    for f in letters:
        i_f, j_f = occ[f]
        gen = PiElement.generator(al, w.proj[f])
        outer = [d for d in letters if occ[d][0] < i_f < occ[d][1]]
        for e in letters:
            if occ[e][0] < j_f < occ[e][1]:
                for d in outer:
                    circ[d, e] = circ.get((d, e), one) * gen
    n = interlacement(w)
    lk = {(d, e): circ.get((d, e), one) * circ.get((e, d), one).inverse()
          for d in letters for e in letters}
    return AlphaForm(al, letters, w.proj,
                     {(a, b): n.n(a, b) for a in letters for b in letters}, lk)


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


def trivial_pairing(alphabet: Alphabet) -> AlphaPairing:
    return AlphaPairing(alphabet, (), {}, {})


def to_pairing(f: AlphaForm) -> AlphaPairing:
    """b(A,s) = prod_C |C|^{n(A,C)};  b(A,B) = l(A,B)^2 |A|^{n} |B|^{n}."""
    al = f.alphabet
    b = {}
    for a in f.letters:
        col = PiElement.identity(al)
        for c in f.letters:
            e = f.n(a, c)
            if e:
                col = col * (PiElement.generator(al, f.proj[c]) ** e)
        b[(a, AlphaPairing.S)] = col
        b[(AlphaPairing.S, a)] = col.inverse()
    for a in f.letters:
        for c in f.letters:
            if a == c:
                continue
            e = f.n(a, c)
            val = (f.l(a, c) ** 2) \
                * (PiElement.generator(al, f.proj[a]) ** e) \
                * (PiElement.generator(al, f.proj[c]) ** e)
            b[(a, c)] = val
    return AlphaPairing(al, f.letters, f.proj, b)


def linking_pairing(w: Nanoword) -> AlphaPairing:
    return to_pairing(linking_form(w))


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


def _signature(p: AlphaPairing, a):
    return (p.proj[a], p.b(a, AlphaPairing.S).sort_key())


def pairings_isomorphic(p1: AlphaPairing, p2: AlphaPairing) -> bool:
    """Bijection search fixing s, preserving projections and b.

    Candidates are pruned by the (projection, b(.,s)) signature.
    """
    if p1.alphabet != p2.alphabet or len(p1.letters) != len(p2.letters):
        return False
    sig1: dict = {}
    sig2: dict = {}
    for a in p1.letters:
        sig1.setdefault(_signature(p1, a), []).append(a)
    for a in p2.letters:
        sig2.setdefault(_signature(p2, a), []).append(a)
    if set(sig1) != set(sig2):
        return False
    if any(len(sig1[k]) != len(sig2[k]) for k in sig1):
        return False

    order = [a for k in sorted(sig1) for a in sig1[k]]
    pool = {k: list(v) for k, v in sig2.items()}

    def extend(assign: dict, idx: int) -> bool:
        if idx == len(order):
            return True
        a = order[idx]
        for cand in pool[_signature(p1, a)]:
            if cand in assign.values():
                continue
            if all(p1.b(a, x) == p2.b(cand, y) and p1.b(x, a) == p2.b(y, cand)
                   for x, y in assign.items()):
                assign[a] = cand
                if extend(assign, idx + 1):
                    return True
                del assign[a]
        return False

    return extend({}, 0)


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


def pairing_u(p: AlphaPairing) -> SelfLinkSection:
    """The self-linking section read off b(., s); equals u^w for p = p^w."""
    return section_of(p.alphabet, ((p.proj[x], p.b(x, AlphaPairing.S)) for x in p.letters))


# ---------------------------------------------------------------------------
# Moves on alpha-forms (test fixtures for the homology relation)


def form_move(f: AlphaForm, kind: str, letters: tuple) -> AlphaForm:
    """Apply move (i)*, (ii)* or (iii)*; raises unless side conditions hold."""
    al = f.alphabet
    one = PiElement.identity(al)
    if kind == "i*":
        (a,) = letters
        if any(f.n(a, c) for c in f.letters) or any(f.l(a, c) != one for c in f.letters):
            raise PreconditionViolated("i*: letter is not isolated (n = 0, l = 1 required)")
        keep = [x for x in f.letters if x != a]
        return _restrict_form(f, keep)
    if kind == "ii*":
        a, b = letters
        if f.proj[a] != al.tau(f.proj[b]):
            raise PreconditionViolated("ii*: |A| = tau(|B|) fails")
        for c in f.letters:
            if f.n(a, c) != f.n(b, c):
                raise PreconditionViolated(f"ii*: n(A,{c}) != n(B,{c})")
            expected = f.l(b, c) * (PiElement.generator(al, f.proj[b]) ** f.n(b, c))
            if f.l(a, c) != expected:
                raise PreconditionViolated(f"ii*: l(A,{c}) != l(B,{c}) |B|^n(B,{c})")
        keep = [x for x in f.letters if x not in (a, b)]
        return _restrict_form(f, keep)
    if kind == "iii*":
        a, b, c = letters
        if not (f.proj[a] == f.proj[b] == f.proj[c]):
            raise PreconditionViolated("iii*: |A| = |B| = |C| fails")
        if not (f.n(a, b) == 1 and f.n(b, c) == 1 and f.n(a, c) == 0):
            raise PreconditionViolated("iii*: need n(A,B) = n(B,C) = 1, n(A,C) = 0")
        n2 = dict(f._n)
        l2 = dict(f._l)
        va = PiElement.generator(al, f.proj[a])

        def set_pair(x, y, nval, lval):
            n2[(x, y)], n2[(y, x)] = nval, -nval
            l2[(x, y)], l2[(y, x)] = lval, lval.inverse()

        set_pair(a, b, 0, f.l(a, b) * va)
        set_pair(a, c, 1, f.l(a, c) * va.inverse())
        set_pair(b, c, 0, f.l(b, c) * va)
        return AlphaForm(al, f.letters, f.proj, n2, l2)
    raise ValueError(f"unknown form move {kind!r}")


def _restrict_form(f: AlphaForm, keep) -> AlphaForm:
    keep = tuple(keep)
    ks = set(keep)
    return AlphaForm(f.alphabet, keep, {x: f.proj[x] for x in keep},
                     {k: v for k, v in f._n.items() if set(k) <= ks},
                     {k: v for k, v in f._l.items() if set(k) <= ks})
