import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanowords import (Alphabet, GroupRingElement, PiElement, desingularize,
                       from_word, inverse, nanoword_from_pattern, opposite,
                       product, self_link_class, self_link_function,
                       norm_lower_bound)
from nanowords.errors import UnknownSymbol
from nanowords.selflinking import SelfLinkSection
from nanowords.groups import parse_pi

from conftest import ALPHABETS, nanowords_strategy, random_nanoword
from oracles import is_skew_symmetric_section


def _mono(al, text, coeff=1):
    return GroupRingElement.of(parse_pi(al, text), coeff)


def test_self_link_class_abab(al_free1):
    w = nanoword_from_pattern(al_free1, "ABAB", {"A": "a", "B": "a"})
    got = self_link_class(w, "a")
    assert got == _mono(al_free1, "a") + _mono(al_free1, "a^-1")
    u = self_link_function(w)
    assert u.values["a"] == got
    assert u.value("A") == -got


def test_self_link_class_rejects_an_unknown_symbol(al_free1):
    w = nanoword_from_pattern(al_free1, "ABAB", {"A": "a", "B": "a"})
    with pytest.raises(UnknownSymbol):
        self_link_class(w, "Z")


def test_self_link_zero_on_unlaced(al_free2):
    w = nanoword_from_pattern(al_free2, "AABB", {"A": "a", "B": "b"})
    assert self_link_function(w).is_zero()


def _wmn(al, m, n):
    """A1..Am B1..Bn Am..A1 Bn..B1 with |Ai| = a, |Bj| = b."""
    heads = [f"A{i}" for i in range(1, m + 1)] + [f"B{j}" for j in range(1, n + 1)]
    tails = [f"A{i}" for i in range(m, 0, -1)] + [f"B{j}" for j in range(n, 0, -1)]
    proj = {f"A{i}": "a" for i in range(1, m + 1)}
    proj.update({f"B{j}": "b" for j in range(1, n + 1)})
    return nanoword_from_pattern(al, heads + tails, proj)


def test_w_mn_family():
    al = Alphabet(["a", "b"], {"a": "b", "b": "a"})
    for m in range(1, 4):
        for n in range(1, 4):
            u = self_link_function(_wmn(al, m, n))
            expected = _mono(al, f"a^{-n}", m) + _mono(al, f"a^{-m}", -n)
            assert u.values["a"] == expected


def test_monoliteral_class_formula():
    al = Alphabet(["a", "A"], {"a": "A", "A": "a"})
    for m in range(3, 7):
        w = desingularize(from_word("a" * m, al))
        total = GroupRingElement.zero(al)
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                if i + j == m + 1:
                    continue
                total = total + _mono(al, f"a^{(m + 1 - i - j) * (j - i)}")
        assert self_link_class_sum(w, "a") == total


def self_link_class_sum(w, a):
    return self_link_class(w, a)


def test_mod2_reduction_at_fixed_points():
    al = Alphabet(["a", "b"])
    w = nanoword_from_pattern(al, "ABAB", {"A": "a", "B": "b"})
    ww = product(w, w)
    assert self_link_function(ww).is_zero()
    assert not self_link_function(w).is_zero()


@given(nanowords_strategy())
@settings(max_examples=80)
def test_necessity_of_skew_symmetry(w):
    assert is_skew_symmetric_section(self_link_function(w))


def test_skew_symmetry_rejects_non_sections(al_free2):
    zero = GroupRingElement.zero(al_free2)
    u = SelfLinkSection(al_free2, {"a": _mono(al_free2, "b"), "b": zero})
    assert not is_skew_symmetric_section(u)
    z = SelfLinkSection(al_free2, {"a": zero, "b": zero})
    assert is_skew_symmetric_section(z)


@given(nanowords_strategy(max_letters=4), nanowords_strategy(max_letters=4))
@settings(max_examples=40)
def test_additivity_and_symmetries(w1, w2):
    if w1.alphabet != w2.alphabet:
        return
    u = self_link_function(product(w1, w2))
    s = self_link_function(w1) + self_link_function(w2)
    assert u == s
    skew = product(w1, inverse(opposite(w1)))
    assert self_link_function(skew).is_zero()


def test_monoliteral_words_pairwise_distinct():
    """a^m and b^n (free orbits, m, n >= 3) can be told apart from u alone."""
    al = Alphabet(["a", "ta", "b", "tb"],
                  {"a": "ta", "ta": "a", "b": "tb", "tb": "b"})
    sections = {}
    for letter in ("a", "b"):
        for m in range(3, 7):
            w = desingularize(from_word(letter * m, al))
            sections[(letter, m)] = self_link_function(w)
    keys = list(sections)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            assert sections[k1] != sections[k2], (k1, k2)


def test_two_block_family_cases():
    """The palindromic two-block family over a mixed alphabet.

    With the second block's letter at a fixed point, an even second block
    contracts, and for odd blocks u(a) = k b with k the signed count of the
    first block's twists.
    """
    from nanowords.moves import HomotopyData, search_contractible

    al = Alphabet(["a", "ta", "b"], {"a": "ta", "ta": "a", "b": "b"})
    data = HomotopyData(al)
    rng = random.Random(64)
    for _ in range(12):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        eps = [rng.randrange(2) for _ in range(m)]
        heads = [f"A{i}" for i in range(1, m + 1)] + \
                [f"B{j}" for j in range(1, n + 1)]
        tails = [f"A{i}" for i in range(m, 0, -1)] + \
                [f"B{j}" for j in range(n, 0, -1)]
        proj = {f"A{i}": ("a", "ta")[eps[i - 1]] for i in range(1, m + 1)}
        proj.update({f"B{j}": "b" for j in range(1, n + 1)})
        w = nanoword_from_pattern(al, heads + tails, proj)
        if n % 2 == 0:
            cert = search_contractible(w, data, len(w.word) + 4, 100000)
            assert cert is not None
        else:
            k = eps.count(0) - eps.count(1)
            u = self_link_function(w)
            expected = GroupRingElement.of(parse_pi(al, "b"), k)
            assert u.values["a"] == expected


def test_norm_lower_bounds():
    al = Alphabet(["a", "A"], {"a": "A", "A": "a"})
    for m in range(3, 7):
        w = desingularize(from_word("a" * m, al))
        assert norm_lower_bound(w) >= (m // 2) * ((m - 1) // 2) + 1
    alid = Alphabet(["a", "b"])
    v = nanoword_from_pattern(alid, "ABAB", {"A": "a", "B": "b"})
    assert norm_lower_bound(v) == 2
    triv = nanoword_from_pattern(alid, "AABB", {"A": "a", "B": "b"})
    assert norm_lower_bound(triv) == 0
