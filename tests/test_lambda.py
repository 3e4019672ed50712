import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, GroupRingElement, PsiElement, desingularize,
                       from_word, inverse, lambda_checks, lambda_graph,
                       lambda_invariant, lambda_prime, lambda_split,
                       nanoword_from_pattern, opposite, product, psi_expand)
from nanowords.lambdainv import (bar, iota, kappa, lambda_by_substitution,
                                 w_star)
from nanowords.groups import PiWord

from conftest import ALPHABETS, nanowords_strategy, random_nanoword


def _lam(al, *factors):
    """Monomial from generator tokens like 'a', 'a.'."""
    out = PsiElement.identity(al)
    for tok in factors:
        bullet = tok.endswith(".")
        g = PsiElement.generator(al, tok.rstrip("."), bullet=bullet)
        out = out * g
    return GroupRingElement.of(out)


def _expect(al, *monomials):
    out = GroupRingElement.zero(al)
    for coeff, toks in monomials:
        out = out + _lam(al, *toks) * coeff
    return out


def test_lambda_abab_formula():
    for al in (ALPHABETS[0], ALPHABETS[2]):
        w = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
        expected = _expect(al,
                           (1, ("a", "b", "a.", "b.")),
                           (1, ("b.",)), (-1, ("a", "a.", "b.")),
                           (1, ("a",)), (-1, ("a", "b", "b.")))
        assert lambda_invariant(w) == expected


def test_lambda_graph_shape():
    al = ALPHABETS[0]
    w = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
    g = lambda_graph(w)
    assert g.size == 4 and len(g.arcs) == 2
    assert g.path_count() == 3
    aa = nanoword_from_pattern(al, "AA", {"A": "a"})
    g2 = lambda_graph(aa)
    assert g2.arcs[2][0] == 0
    assert lambda_invariant(aa) == _expect(al, (1, ()))


def test_lambda_empty(al_id2):
    from nanowords.words import empty_nanoword
    assert lambda_invariant(empty_nanoword(al_id2)) == _expect(al_id2, (1, ()))


def test_lambda_abcabc_formula():
    al3 = Alphabet(["a", "b", "c"])
    w = nanoword_from_pattern(al3, "ABCABC", {"A": "a", "B": "b", "C": "c"})
    expected = _expect(al3,
                       (1, ("a", "b", "c", "a.", "b.", "c.")),
                       (1, ("b.", "c.")), (-1, ("a", "a.", "b.", "c.")),
                       (1, ("a", "c.")), (-1, ("a", "b", "b.", "c.")),
                       (1, ("a", "b")), (-1, ("a", "b", "c", "c.")))
    assert lambda_invariant(w) == expected


def _family6(al, kind, a, b, c):
    patterns = {"w1": "ABCABC", "w2": "ABCACB", "w3": "ABCBAC",
                "w4": "ABCBCA", "w5": "ABACBC"}
    return nanoword_from_pattern(al, patterns[kind], {"A": a, "B": b, "C": c})


def test_length6_lambda_three_letters():
    al = Alphabet(["a", "ta", "b", "tb", "c", "tc"],
                  {"a": "ta", "ta": "a", "b": "tb", "tb": "b",
                   "c": "tc", "tc": "c"})
    a, b, c = "a", "b", "c"
    # w1 = ABCABC: the four displayed component formulas
    s = lambda_split(lambda_invariant(_family6(al, "w1", a, b, c)))
    assert s[(0, 1)].is_zero() and s[(1, 0)].is_zero()
    assert s[(0, 0)] == _expect(al, (1, ("a", "b")), (1, ("b.", "c.")),
                                (-1, ("a", "b", "b.", "c.")))
    assert s[(1, 1)] == _expect(al, (1, ("a", "c.")),
                                (-1, ("a", "a.", "b.", "c.")),
                                (-1, ("a", "b", "c", "c.")),
                                (1, ("a", "b", "c", "a.", "b.", "c.")))
    # w2 = ABCACB
    s2 = lambda_split(lambda_invariant(_family6(al, "w2", a, b, c)))
    assert s2[(0, 0)] == _expect(al, (1, ("c.", "b.")))
    assert s2[(0, 1)].is_zero()
    assert s2[(1, 0)] == _expect(al, (1, ("a",)),
                                 (-1, ("a", "b", "c", "c.", "b.")))
    assert s2[(1, 1)] == _expect(al, (1, ("a", "b", "c", "a.", "c.", "b.")),
                                 (-1, ("a", "a.", "c.", "b.")))
    # w3 = ABCBAC
    s3 = lambda_split(lambda_invariant(_family6(al, "w3", a, b, c)))
    assert s3[(0, 0)] == _expect(al, (1, ("a", "b")))
    assert s3[(1, 0)].is_zero()
    assert s3[(0, 1)] == _expect(al, (1, ("c.",)),
                                 (-1, ("a", "b", "b.", "a.", "c.")))
    assert s3[(1, 1)] == _expect(al, (1, ("a", "b", "c", "b.", "a.", "c.")),
                                 (-1, ("a", "b", "c", "c.")))
    # w4 = ABCBCA
    s4 = lambda_split(lambda_invariant(_family6(al, "w4", a, b, c)))
    assert s4[(0, 0)] == _expect(al, (1, ()))
    assert s4[(1, 0)] == _expect(al, (1, ("a", "c.", "a.")),
                                 (-1, ("a", "b", "c", "c.", "a.")))
    assert s4[(0, 1)] == _expect(al, (1, ("a", "b", "a.")),
                                 (-1, ("a", "b", "b.", "c.", "a.")))
    assert s4[(1, 1)] == _expect(al, (1, ("a", "b", "c", "b.", "c.", "a.")),
                                 (-1, ("a", "a.")))
    # w5 = ABACBC
    s5 = lambda_split(lambda_invariant(_family6(al, "w5", a, b, c)))
    assert s5[(0, 0)] == _expect(al, (1, ()), (-1, ("a", "b", "b.", "c.")),
                                 (1, ("a", "a.", "c", "c.")))
    assert s5[(1, 0)] == _expect(al, (1, ("c", "b.", "c.")),
                                 (-1, ("a", "b", "a.", "c", "c.")))
    assert s5[(0, 1)] == _expect(al, (1, ("a", "b", "a.")),
                                 (-1, ("a", "a.", "c", "b.", "c.")))
    assert s5[(1, 1)] == _expect(al, (1, ("a", "c.")), (-1, ("c", "c.")),
                                 (-1, ("a", "a.")),
                                 (1, ("a", "b", "a.", "c", "b.", "c.")))


def test_aabab_desingularization_components():
    al2 = ALPHABETS[2]  # two free orbits a, b
    # (aabab)^d = A3 A2 A3 A1 B A2 A1 B
    word = ["A3", "A2", "A3", "A1", "B", "A2", "A1", "B"]
    proj2 = {"A1": "a", "A2": "a", "A3": "a", "B": "b"}
    w = nanoword_from_pattern(al2, word, proj2)
    s = lambda_split(lambda_invariant(w))
    assert s[(1, 1)] == _expect(al2, (1, ("a", "a", "a", "a.")),
                                (-1, ("a", "a", "a", "a.", "a.", "b.")))
    # (abaab)^d = A3 A2 B A3 A1 A2 A1 B
    word2 = ["A3", "A2", "B", "A3", "A1", "A2", "A1", "B"]
    v = nanoword_from_pattern(al2, word2, proj2)
    sv = lambda_split(lambda_invariant(v))
    assert sv[(1, 1)] == _expect(al2, (1, ("a", "a.", "a.", "b.")),
                                 (-1, ("a", "a", "b", "b.")))
    # specialization tau(a) = a: the two components that separate the
    # aabab / abaab desingularizations
    alm = Alphabet(["a", "b", "B"], {"a": "a", "b": "B", "B": "b"})
    wm = nanoword_from_pattern(alm, word, proj2)
    vm = nanoword_from_pattern(alm, word2, proj2)
    assert lambda_split(lambda_invariant(wm))[(1, 1)] == \
        _expect(alm, (1, ("a", "a.")), (-1, ("a", "b.")))
    assert lambda_split(lambda_invariant(vm))[(1, 1)] == \
        _expect(alm, (1, ("a", "b.")), (-1, ("b", "b.")))
    assert lambda_split(lambda_invariant(wm))[(1, 1)] != \
        lambda_split(lambda_invariant(vm))[(1, 1)]


def test_lambda_one_letter_alphabet():
    al = Alphabet(["a"])
    rng = random.Random(17)
    one = _expect(al, (1, ()))
    for _ in range(50):
        w = random_nanoword(al, rng.randrange(0, 5), rng)
        assert lambda_invariant(w) == one


@given(nanowords_strategy(max_letters=5))
@settings(max_examples=60, deadline=None)
def test_lambda_consistency_maps(w):
    assert all(lambda_checks(w).values())


@given(nanowords_strategy(max_letters=5))
@settings(max_examples=60, deadline=None)
def test_lambda_two_routes_agree(w):
    assert lambda_invariant(w) == lambda_by_substitution(w)


@given(nanowords_strategy(max_letters=4), nanowords_strategy(max_letters=4))
@settings(max_examples=40, deadline=None)
def test_lambda_multiplicative(w1, w2):
    if w1.alphabet != w2.alphabet:
        return
    assert lambda_invariant(product(w1, w2)) == \
        lambda_invariant(w1) * lambda_invariant(w2)


@given(nanowords_strategy(max_letters=4))
@settings(max_examples=40, deadline=None)
def test_lambda_symmetries(w):
    lam = lambda_invariant(w)
    assert lambda_invariant(inverse(w)) == bar(lam)
    assert lambda_invariant(opposite(w)) == kappa(lam)
    assert lambda_prime(w) == iota(lam)


def test_psi_expand_values(al_free2):
    al = al_free2
    x = _lam(al, "a", "b", "a.")
    table = psi_expand(x)
    za = PiWord.generator(al, "a")
    zb = PiWord.generator(al, "b")
    assert table == {(za * zb, za): 1}
    w = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
    s = lambda_split(lambda_invariant(w))
    t = psi_expand(s[(0, 1)])
    one = PiWord.identity(al)
    assert t == {(one, zb): 1, (za * zb, zb): -1}
    assert psi_expand(_expect(al, (1, ())))[(one, one)] == 1


@given(nanowords_strategy(max_letters=4))
@settings(max_examples=40, deadline=None)
def test_degree_bound(w):
    """lambda(w) - w_* only carries monomials of bounded bullet degrees.

    The strict total bound needs no doubled adjacent letter: a one-step
    backward arc reproduces the leading monomial with opposite sign, and
    subtracting w_* would then reintroduce it.
    """
    if not w.word:
        return
    diff = lambda_invariant(w) - GroupRingElement.of(w_star(w))
    adjacent_pair = any(x == y for x, y in zip(w.word, w.word[1:]))
    for g, c in diff.items():
        assert max(g.deg(), g.deg_bullet()) <= len(w.word) // 2
        if not adjacent_pair:
            assert g.deg() + g.deg_bullet() < len(w.word)
