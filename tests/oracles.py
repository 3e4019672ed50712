"""Independent routes to results that the library computes another way.

The tests check the library against these reference implementations; no
production code calls them.  Each is the simplest correct computation, not a
fast one: lambda by forward substitution in the relation rows, coloring
counts by enumeration, pairing isomorphism by bijection search, the
skew-symmetry predicate on self-linking sections, and the alpha-form route
to the linking pairing (a dense lk table and b built with group products),
with its moves (i)*, (ii)* and (iii)*, the homotopy decision that
compares every field before it searches, and the classification that
computes every item's full fingerprint key and buckets the items on it.
"""

from __future__ import annotations

from nanowords.classify import FAMILIES, ZERO, ClassificationResult, ClassRow
from nanowords.cli import _load_nanoword
from nanowords.errors import NanowordError, PreconditionViolated, UnknownFamily
from nanowords.fingerprint import Fingerprint, compute_fingerprint
from nanowords.groups import GroupRingElement, PiElement, PsiElement, psi_abelianize
from nanowords.interlacement import _classes_of, interlacement
from nanowords.lambdainv import iota
from nanowords.matrices import ColoringSpec, _coloring_matrix, weighted_matrix
from nanowords.moves import HomotopyData, search_contractible, search_homotopic
from nanowords.pairings import AlphaPairing
from nanowords.selflinking import SelfLinkSection
from nanowords.words import Alphabet, Nanoword


def lambda_by_substitution(w: Nanoword) -> GroupRingElement:
    """Independent route: solve the relation rows left-to-right, then reverse.

    Cross-checks the path sum; uses the actual weighted-matrix rows.
    """
    al = w.alphabet
    one = GroupRingElement.of(PsiElement.identity(al))
    if not w.word:
        return one
    m = weighted_matrix(w, set(al.letters))
    minus_one = one * -1
    solving: dict[int, dict[int, GroupRingElement]] = {}
    for i in range(m.rows):
        row = {j: m.entry(i, j) for j in range(m.cols) if not m.entry(i, j).is_zero()}
        lead = max(row)
        assert row[lead] == minus_one
        solving[lead] = {j: v for j, v in row.items() if j != lead}
    coeff = [None] * m.cols
    coeff[0] = one
    for i in range(1, m.cols):
        total = GroupRingElement.zero(al)
        for j, v in solving[i].items():
            total = total + v * coeff[j]
        coeff[i] = total
    return iota(coeff[m.cols - 1])


def q_ab(x: GroupRingElement) -> GroupRingElement:
    """Projection to the commutative quotient."""
    return x.map_terms(psi_abelianize)


def count_colorings_bruteforce(w: Nanoword, spec: ColoringSpec) -> list[list[int]]:
    """Enumerate all functions f: {0..2n} -> Z/m; oracle for small instances."""
    m = spec.modulus
    n2 = len(w.word)
    out = [[0] * m for _ in range(m)]
    rows = _coloring_matrix(w, spec)
    total = m ** (n2 + 1)
    if total > 10 ** 6:
        raise ValueError("instance too large for brute force")
    for idx in range(total):
        f = []
        t = idx
        for _ in range(n2 + 1):
            f.append(t % m)
            t //= m
        if all(sum(c * f[i] for i, c in enumerate(row)) % m == 0 for row in rows):
            out[f[0]][f[n2]] += 1
    return out


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


def coeff(x: GroupRingElement, g) -> int:
    """The coefficient of the group element ``g`` in ``x``."""
    return x.terms.get(g.nf, 0) if type(g) is x.group else 0


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
        c = coeff(va, one)
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


# ---------------------------------------------------------------------------
# The alpha-form route to the linking pairing, and the moves on alpha-forms


class AlphaForm:
    """Letter set with skew-symmetric n (ints) and l (pi-valued) pairings,
    each a table that reads 0 or 1 on a pair it lacks."""

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


def alpha_form(w: Nanoword) -> AlphaForm:
    """The (letters, n_w, lk_w) form with lk(D,E) = (DoE)(EoD)^{-1}.

    DoE multiplies |F| over letters F with exactly one occurrence inside
    D's span and whose second occurrence lies inside E's span.  One pass over
    the letters F builds DoE for every ordered pair: F multiplies |F| into
    each pair (D, E) whose spans hold its first and its second occurrence.
    """
    al, letters = w.alphabet, w.letters
    one = PiElement.identity(al)
    circ: dict = {}
    for f in letters:
        i_f, j_f = w.occurrences(f)
        gen = PiElement.generator(al, w.proj[f])
        outer = [d for d in letters if w.occurrences(d)[0] < i_f < w.occurrences(d)[1]]
        for e in letters:
            if w.occurrences(e)[0] < j_f < w.occurrences(e)[1]:
                for d in outer:
                    circ[d, e] = circ.get((d, e), one) * gen
    lk = {(d, e): circ.get((d, e), one) * circ.get((e, d), one).inverse()
          for d in letters for e in letters}
    return AlphaForm(al, letters, w.proj, interlacement(w), lk)


def to_pairing(f: AlphaForm) -> AlphaPairing:
    """b(A,s) = prod_C |C|^{n(A,C)};  b(A,B) = l(A,B)^2 |A|^{n} |B|^{n}."""
    al = f.alphabet
    b = {}
    for a, col in _classes_of(al, f.letters, f.proj, f._n).items():
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


# ---------------------------------------------------------------------------
# The homotopy decision, fingerprint first


def cmd_homotopic_fingerprint_first(args, out) -> int:
    """``nanowords homotopic`` deciding in its first order: every field up to
    the first that separates, then one search at the full budget.  Patched
    over ``nanowords.cli.cmd_homotopic``, ``main`` runs it."""
    rec1, w1 = _load_nanoword(args.input1)
    rec2, w2 = _load_nanoword(args.input2)
    if rec1.alphabet != rec2.alphabet:
        raise NanowordError("the two records use different alphabets")
    diff = Fingerprint(w1).first_difference(Fingerprint(w2))
    if diff is not None:
        out.emit({"verdict": "NON-HOMOTOPIC", "separated_by": diff},
                 [f"NON-HOMOTOPIC (separated by {diff})"])
        return 0
    data = HomotopyData(rec1.alphabet)
    cert = search_homotopic(w1, w2, data, args.max_length, args.max_states)
    if cert is None:
        out.emit({"verdict": "UNKNOWN"}, ["UNKNOWN (equal fingerprints, no certificate)"])
        return 2
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(cert.format())
    out.emit({"verdict": "HOMOTOPIC", "moves": [m.format() for m in cert.moves]},
             ["HOMOTOPIC", *[m.format() for m in cert.moves]])
    return 0


# ---------------------------------------------------------------------------
# Classification on full fingerprint keys


def classify_by_full_keys(kind: str, alphabet: Alphabet, max_length: int | None = None,
                          max_states: int = 100000) -> ClassificationResult:
    """``classify`` with every field of every item computed up front: the
    three checks compare full keys, and the items sharing a key are looked
    up in one bucket per key."""
    if kind not in FAMILIES:
        raise UnknownFamily(f"unknown family {kind!r}; pick one of {sorted(FAMILIES)}")
    items = FAMILIES[kind](alphabet)
    data = HomotopyData(alphabet)

    keys = {it.name: compute_fingerprint(it.nanoword).key() for it in items}
    buckets: dict = {}
    for it in items:
        buckets.setdefault(keys[it.name], []).append(it)
    classes: dict = {}
    for it in items:
        classes.setdefault(it.predicted, []).append(it)

    def joined(label, members) -> bool:
        # all() stops at the first failed search
        if label == ZERO:
            return all(search_contractible(it.nanoword, data, max_length, max_states)
                       is not None for it in members)
        return all(search_homotopic(one.nanoword, two.nanoword, data, max_length,
                                    max_states) is not None
                   for one, two in zip(members, members[1:]))

    rows = []
    for label, members in classes.items():
        names = [it.name for it in members]
        status, detail = "AGREES", ""
        if len({keys[n] for n in names}) > 1:
            status, detail = "DISAGREES", "fingerprints split a predicted class"
        elif not joined(label, members):
            status, detail = "UNKNOWN", "search budget exhausted"
        else:
            shared = sorted(it.name for it in buckets[keys[names[0]]]
                            if it.predicted != label)
            if shared:
                status, detail = "UNKNOWN", f"fingerprint shared with {','.join(shared)}"
        rows.append(ClassRow(label, names, status, detail))
    return ClassificationResult(kind, rows)
