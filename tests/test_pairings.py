import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, PiElement, compress, desingularize, from_word,
                       inverse, linking_form, linking_pairing,
                       nanoword_from_pattern, opposite, pairing_u, product,
                       rho, rho_ax, self_link_function, to_pairing)
from nanowords.errors import PreconditionViolated
from nanowords.pairings import (AlphaPairing, BASEPOINT, canonical_pairing_key,
                                form_move, trivial_pairing)
from nanowords.groups import parse_pi
from nanowords.moves import HomotopyData, apply_move, Move, enumerate_moves

from conftest import ALPHABETS, nanowords_strategy, random_nanoword
from oracles import pairings_isomorphic


def _parse_matrix(p, elems):
    return {x: {y: p.b(x, y) for y in elems} for x in elems}


def test_linking_form_abacbc():
    al = Alphabet(["a", "b"])
    w = nanoword_from_pattern(al, "ABACBC", {"A": "a", "B": "b", "C": "a"})
    f = linking_form(w)
    one = PiElement.identity(al)
    b = parse_pi(al, "b")
    assert f.l("A", "C") == b and f.l("C", "A") == b.inverse()
    for x, y in itertools.product("ABC", repeat=2):
        if {x, y} != {"A", "C"}:
            assert f.l(x, y) == one
    f.check_skew()


def test_linking_form_case_formulas():
    """The three case formulas of the definition, replayed as oracles."""
    rng = random.Random(11)
    for al in ALPHABETS:
        for _ in range(25):
            w = random_nanoword(al, rng.randrange(2, 5), rng)
            f = linking_form(w)
            occ = {x: w.occurrences(x) for x in w.letters}

            def pieces(cond):
                out = PiElement.identity(al)
                for x in w.letters:
                    if cond(*occ[x]):
                        out = out * PiElement.generator(al, w.proj[x])
                return out

            for d, e in itertools.permutations(w.letters, 2):
                i_d, j_d = occ[d]
                i_e, j_e = occ[e]
                if j_d < i_e:  # D D E E
                    assert f.l(d, e) == pieces(
                        lambda i, j: i_d < i < j_d and i_e < j < j_e)
                elif i_d < i_e and j_e < j_d:  # D E E D
                    pos = pieces(lambda i, j: i_d < i < i_e < j < j_e)
                    neg = pieces(lambda i, j: i_e < i < j_e < j < j_d)
                    assert f.l(d, e) == pos * neg.inverse()
                elif i_d < i_e < j_d < j_e:  # D E D E
                    assert f.l(d, e) == pieces(
                        lambda i, j: (i_d < i < i_e < j < j_d)
                        or (i_e < i < j_d < j < j_e)
                        or (i_d < i < i_e and j_d < j < j_e))


def test_pairing_abab_matrix():
    al = Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"})
    w = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
    p = linking_pairing(w.canonical())
    la, lb = p.letters
    s = BASEPOINT
    assert p.b(s, la) == parse_pi(al, "b^-1")
    assert p.b(s, lb) == parse_pi(al, "a")
    assert p.b(la, s) == parse_pi(al, "b")
    assert p.b(la, lb) == parse_pi(al, "ab")
    assert p.b(lb, s) == parse_pi(al, "a^-1")
    assert p.b(lb, la) == parse_pi(al, "a^-1 b^-1")
    # b != tau(a): primitive already
    assert compress(p).letters == p.letters
    assert rho(p) == 2


def test_pairing_abacbc_cases():
    # generic: primitive of size 3
    al4 = Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"})
    w = nanoword_from_pattern(al4, "ABACBC", {"A": "a", "B": "b", "C": "a"})
    assert len(compress(linking_pairing(w)).letters) == 3

    # a = c = tau(b): B annihilates, 3x3 matrix as displayed
    w2 = nanoword_from_pattern(al4, "ABACBC", {"A": "a", "B": "A", "C": "a"})
    c2 = compress(linking_pairing(w2.canonical()))
    assert len(c2.letters) == 2
    la, lc = c2.letters
    assert c2.b(la, BASEPOINT) == parse_pi(al4, "a^-1")
    assert c2.b(lc, BASEPOINT) == parse_pi(al4, "a")
    assert c2.b(la, lc) == parse_pi(al4, "a^-2")

    # a = tau(c), b = tau(b): twins A, C; 2x2 with b(B, s) = a^2
    alm = Alphabet(["a", "A", "c"], {"a": "A", "A": "a", "c": "c"})
    w3 = nanoword_from_pattern(alm, "ABACBC", {"A": "a", "B": "c", "C": "A"})
    c3 = compress(linking_pairing(w3.canonical()))
    assert len(c3.letters) == 1
    (lb,) = c3.letters
    assert c3.b(BASEPOINT, lb) == parse_pi(alm, "a^2")

    # a = tau(a) = c != b = tau(b): homologous to the trivial pairing
    alid = Alphabet(["a", "b"])
    w4 = nanoword_from_pattern(alid, "ABACBC", {"A": "a", "B": "b", "C": "a"})
    assert compress(linking_pairing(w4)).letters == ()


def _grid(p, order, table, al):
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            assert p.b(x, y) == parse_pi(al, table[i][j]), (x, y, table[i][j])


def test_pairing_matrices_of_length5_desingularizations():
    """Entrywise checks of the displayed 5x5 pairing matrices for the
    desingularized words abaab, baaab, ababa (independent free orbits)."""
    al = Alphabet(["a", "ta", "b", "tb"],
                  {"a": "ta", "ta": "a", "b": "tb", "tb": "b"})
    s = BASEPOINT
    a1, a2, a3, bb = ("a", 2, 3), ("a", 1, 3), ("a", 1, 2), ("b", 1, 2)

    w = desingularize(from_word("abaab", al))
    assert list(w.word) == [a3, a2, bb, a3, a1, a2, a1, bb]
    _grid(linking_pairing(w), (s, a1, a2, a3, bb), [
        ["1", "a", "b^-1", "a^-1 b^-1", "a^2"],
        ["a^-1", "1", "a^-2", "a^-2", "1"],
        ["b", "a^2", "1", "a^-2", "a^3 b"],
        ["a b", "a^2", "a^2", "1", "a^3 b"],
        ["a^-2", "1", "a^-3 b^-1", "a^-3 b^-1", "1"],
    ], al)

    v = desingularize(from_word("baaab", al))
    assert list(v.word) == [bb, a3, a2, a3, a1, a2, a1, bb]
    _grid(linking_pairing(v), (s, a1, a2, a3, bb), [
        ["1", "a", "1", "a^-1", "1"],
        ["a^-1", "1", "a^-2", "a^-2", "a^-2"],
        ["1", "a^2", "1", "a^-2", "1"],
        ["a", "a^2", "a^2", "1", "a^2"],
        ["1", "a^2", "1", "a^-2", "1"],
    ], al)

    u = desingularize(from_word("ababa", al))
    assert list(u.word) == [a3, a2, bb, a3, a1, bb, a2, a1]
    _grid(linking_pairing(u), (s, a1, a2, a3, bb), [
        ["1", "a b", "1", "a^-1 b^-1", "1"],
        ["a^-1 b^-1", "1", "a^-2 b^-2", "a^-2 b^-2", "a^-1 b^-1"],
        ["1", "a^2 b^2", "1", "a^-2 b^-2", "1"],
        ["a b", "a^2 b^2", "a^2 b^2", "1", "a b"],
        ["1", "a b", "1", "a^-1 b^-1", "1"],
    ], al)

    # the abaab linking form matrices, rows/cols A1, A2, A3, B
    f = linking_form(w)
    n_expected = [[0, -1, 0, 0], [1, 0, -1, 1], [0, 1, 0, 1], [0, -1, -1, 0]]
    lk_expected = [["1", "1", "a^-1", "1"], ["1", "1", "1", "a"],
                   ["a", "1", "1", "a"], ["1", "a^-1", "a^-1", "1"]]
    order = (a1, a2, a3, bb)
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            assert f.n(x, y) == n_expected[i][j]
            assert f.l(x, y) == parse_pi(al, lk_expected[i][j])


def test_pairing_classifies_length_four():
    al = Alphabet(["a", "A", "b", "B"], {"a": "A", "A": "a", "b": "B", "B": "b"})
    pairs = [(a, b) for a in al.letters for b in al.letters if b != al.tau(a)]
    prims = {}
    for a, b in pairs:
        w = nanoword_from_pattern(al, "XYXY", {"X": a, "Y": b})
        prims[(a, b)] = compress(linking_pairing(w))
    for k1, k2 in itertools.combinations(prims, 2):
        assert not pairings_isomorphic(prims[k1], prims[k2]), (k1, k2)
    for k in prims:
        assert pairings_isomorphic(prims[k], prims[k])


def test_pairing_u_matches_selflink():
    rng = random.Random(23)
    for al in ALPHABETS:
        for _ in range(20):
            w = random_nanoword(al, rng.randrange(1, 5), rng)
            assert pairing_u(linking_pairing(w)) == self_link_function(w)
            assert pairing_u(compress(linking_pairing(w))) == self_link_function(w)


def test_rho_additive_under_product(al_id2):
    rng = random.Random(5)
    for _ in range(15):
        w1 = random_nanoword(al_id2, rng.randrange(1, 4), rng)
        w2 = random_nanoword(al_id2, rng.randrange(1, 4), rng)
        p = linking_pairing(product(w1, w2))
        assert rho(p) == rho(linking_pairing(w1)) + rho(linking_pairing(w2))
        table = rho_ax(p)
        t1, t2 = rho_ax(linking_pairing(w1)), rho_ax(linking_pairing(w2))
        for key in set(t1) | set(t2) | set(table):
            assert table.get(key, 0) == t1.get(key, 0) + t2.get(key, 0)


def make_random_pairing(al, rng):
    """A random pairing with grafted annihilators and twins, so that
    compression has real deletions to schedule."""
    n = rng.randrange(0, 4)
    letters = [f"P{i}" for i in range(n)]
    proj = {x: rng.choice(al.letters) for x in letters}

    def rand_pi():
        out = PiElement.identity(al)
        for _ in range(rng.randrange(3)):
            out = out * PiElement.generator(al, rng.choice(al.letters))
        return out

    b = {}
    elems = [BASEPOINT] + letters
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            v = rand_pi()
            b[(x, y)] = v
            b[(y, x)] = v.inverse()
    p = AlphaPairing(al, letters, proj, b)
    # graft annihilators and twin pairs so compression has real work
    for k in range(rng.randrange(0, 3)):
        name = f"Z{k}"
        p = _insert_annihilator(p, name, rng.choice(al.letters))
    for k in range(rng.randrange(0, 3)):
        p = _insert_twins(p, f"T{k}", f"U{k}", rng.choice(al.letters), rng)
    return p


def _insert_annihilator(p, name, value):
    letters = p.letters + (name,)
    proj = dict(p.proj)
    proj[name] = value
    return AlphaPairing(p.alphabet, letters, proj, dict(p._b))


def _insert_twins(p, n1, n2, value, rng):
    al = p.alphabet
    letters = p.letters + (n1, n2)
    proj = dict(p.proj)
    proj[n1], proj[n2] = value, al.tau(value)
    b = dict(p._b)

    def rand_pi():
        out = PiElement.identity(al)
        for _ in range(rng.randrange(3)):
            out = out * PiElement.generator(al, rng.choice(al.letters))
        return out

    for c in (BASEPOINT,) + p.letters:
        v = rand_pi()
        for n in (n1, n2):
            b[(n, c)] = v
            b[(c, n)] = v.inverse()
    b[(n1, n2)] = PiElement.identity(al)
    b[(n2, n1)] = PiElement.identity(al)
    return AlphaPairing(al, letters, proj, b)


def test_compress_order_independence():
    rng = random.Random(99)
    for al in ALPHABETS[:2]:
        for _ in range(20):
            p = make_random_pairing(al, rng)
            base = compress(p, random.Random(0))
            for trial in range(10):
                other = compress(p, random.Random(trial + 1))
                assert pairings_isomorphic(base, other)


def _xyxy_power(al, copies):
    """The primitive pairing of ``copies`` concatenated copies of XYXY[a,b]."""
    w = nanoword_from_pattern(al, "XYXY", {"X": "a", "Y": "b"})
    out = w
    for _ in range(copies - 1):
        out = product(out, w)
    return compress(linking_pairing(out))


def _relabelled(p, rng):
    """An isomorphic copy with new letter names in a new order."""
    letters = list(p.letters)
    rename = dict(zip(letters, rng.sample([f"R{i}" for i in range(len(letters))],
                                          len(letters))))
    rename[BASEPOINT] = BASEPOINT
    rng.shuffle(letters)
    return AlphaPairing(p.alphabet, [rename[x] for x in letters],
                        {rename[x]: p.proj[x] for x in letters},
                        {(rename[x], rename[y]): p.b(x, y)
                         for x in p.elements() for y in p.elements()})


def test_pairing_key_separates_a_perturbed_symmetric_pairing():
    # twelve letters in two symmetric signature classes: a signature multiset
    # cannot tell this pairing from a copy with one entry changed
    al = ALPHABETS[2]
    p = _xyxy_power(al, 6)
    x, y = p.letters[0], p.letters[-1]
    g = PiElement.generator(al, "a")
    q = AlphaPairing(al, p.letters, p.proj, {**p._b, (x, y): g, (y, x): g.inverse()})
    assert len(p.letters) == 12
    assert not pairings_isomorphic(p, q)
    assert canonical_pairing_key(p) != canonical_pairing_key(q)


def test_pairing_key_is_equal_exactly_for_isomorphic_pairings():
    rng = random.Random(41)
    for al in ALPHABETS:
        pairings = [compress(linking_pairing(random_nanoword(al, rng.randrange(0, 7), rng)))
                    for _ in range(150)]
        pairings += [make_random_pairing(al, rng) for _ in range(40)]
        keys = [canonical_pairing_key(p) for p in pairings]
        iso = 0
        for (p, kp), (q, kq) in itertools.combinations(zip(pairings, keys), 2):
            if len(p.letters) == len(q.letters):
                same = pairings_isomorphic(p, q)
                iso += same
                assert (kp == kq) == same, (p, q)
        assert 0 < iso
        for p, key in zip(pairings, keys):
            assert canonical_pairing_key(_relabelled(p, rng)) == key


def test_pairing_key_of_a_symmetric_product():
    # 20 letters in two classes of 10: the search must prune on automorphisms
    p = _xyxy_power(ALPHABETS[2], 10)
    assert len(p.letters) == 20
    assert canonical_pairing_key(_relabelled(p, random.Random(2))) == canonical_pairing_key(p)



def _frucht_pairings(al, g, copies):
    """Disjoint copies of the Frucht graph: every letter has the same
    projection and edges carry g = g^-1, so refinement alone splits nothing
    and a single copy has no automorphism."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    letters, b = [], {}
    for c in range(copies):
        names = [f"F{c}_{i}" for i in range(12)]
        letters += names
        for i in range(12):
            for j in (i + 1, i + lcf[i]):
                x, y = names[i], names[j % 12]
                b[(x, y)] = b[(y, x)] = g
    return AlphaPairing(al, letters, {x: al.letters[-1] for x in letters}, b)


def test_pairing_key_when_refinement_stalls(al_mixed):
    # leaves differ, so the key needs the whole pruned tree; two copies add
    # the swap automorphism, so pruning must stop at the first path
    g = PiElement.generator(al_mixed, "c")
    rng = random.Random(5)
    for copies in (1, 2):
        p = _frucht_pairings(al_mixed, g, copies)
        key = canonical_pairing_key(p)
        for _ in range(6):
            assert canonical_pairing_key(_relabelled(p, rng)) == key

def test_form_moves():
    al = Alphabet(["a", "b"])
    rng = random.Random(3)
    data = HomotopyData(al)

    # (iii)* matches the third homotopy move on linking forms
    for _ in range(40):
        w = random_nanoword(al, 4, rng)
        for move, nxt in enumerate_moves(w, data, insert_values=(), use_macros=False):
            if move.kind != "M3" or move.sign != "-":
                continue
            f = linking_form(w)
            p, q, r = move.positions
            a, b, c = w.word[p], w.word[p + 1], w.word[q + 1]
            moved = form_move(f, "iii*", (a, b, c))
            target = linking_form(apply_move(w, move, data))
            for x in w.letters:
                for y in w.letters:
                    assert moved.n(x, y) == target.n(x, y)
                    assert moved.l(x, y) == target.l(x, y)

    # (i)* requires an isolated letter
    w = nanoword_from_pattern(al, "AABB", {"A": "a", "B": "b"})
    f = linking_form(w)
    f2 = form_move(f, "i*", ("A",))
    assert f2.letters == ("B",)
    with pytest.raises(PreconditionViolated):
        form_move(linking_form(nanoword_from_pattern(
            al, "ABAB", {"A": "a", "B": "b"})), "i*", ("A",))

    # (ii)* deletion mirrors twin deletion after to_pairing
    w3 = nanoword_from_pattern(al, "ABBA", {"A": "a", "B": "a"})
    f3 = linking_form(w3)
    moved = form_move(f3, "ii*", ("A", "B"))
    assert moved.letters == ()
    p3 = to_pairing(f3)
    assert p3.are_twins("A", "B") or p3.are_twins("B", "A")


def test_form_operations_multiplicativity():
    rng = random.Random(7)
    al = ALPHABETS[2]
    for _ in range(10):
        w1 = random_nanoword(al, rng.randrange(1, 4), rng)
        w2 = random_nanoword(al, rng.randrange(1, 4), rng)
        p = linking_pairing(product(w1, w2))
        p1, p2 = linking_pairing(w1), linking_pairing(w2)
        assert rho(p) == rho(p1) + rho(p2)
    # opposite and inverse behave
    for _ in range(10):
        w = random_nanoword(al, rng.randrange(1, 4), rng)
        po = compress(linking_pairing(opposite(w)))
        pi_ = compress(linking_pairing(inverse(w)))
        t = rho_ax(linking_pairing(w))
        to = rho_ax(linking_pairing(opposite(w)))
        ti = rho_ax(linking_pairing(inverse(w)))
        for (a, x), c in t.items():
            assert to.get((a, x.inverse()), 0) == c
            # re-projecting through tau also inverts the pi values
            assert ti.get((al.tau(a), x.inverse()), 0) == c


def test_trivial_pairing(al_id2):
    assert to_pairing(linking_form(
        nanoword_from_pattern(al_id2, "", {}))).letters == ()
    assert rho(trivial_pairing(al_id2)) == 0


def test_primitive_pairing_pins_the_norm():
    """When the linking pairing is already primitive, the norm is card(A):
    the lower bound from rho meets the search upper bound."""
    from nanowords import norm_lower_bound, norm_upper_bound
    from nanowords.moves import HomotopyData

    rng = random.Random(77)
    hits = 0
    for al in ALPHABETS:
        data = HomotopyData(al)
        for _ in range(25):
            w = random_nanoword(al, rng.randrange(1, 4), rng)
            p = linking_pairing(w)
            if compress(p).letters != p.letters:
                continue
            hits += 1
            n = len(w.letters)
            assert norm_lower_bound(w) >= n or rho(p) == n
            assert rho(p) == n
            assert norm_upper_bound(w, data, 4000) == n
    assert hits >= 5
